"""Smoke test of the benchmark itself, at tiny bounds.

    python3 -m pytest bench -q

Not part of the package's test suite (``testpaths`` names ``tests``).
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _unit(workload: str, mode: str) -> dict:
    return run._unit(workload, 5, mode, "tiny", 170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_spec_lists_the_workloads_and_metrics_the_code_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        spans.PER_LAYER)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == (
        run.END_TO_END_UNITS)


@pytest.mark.parametrize("workload, wrong", [
    ("sweep", {"histories": 587, "states": 182, "recovered": 0}),
    ("sweep", {"histories": 588, "states": 183, "recovered": 0}),
    ("sweep", {"histories": 588, "states": 182, "recovered": 1}),
    ("oracle", {"histories": 181}),
])
def test_pinned_check_fails_on_a_wrong_expected_count(workload, wrong):
    clock = workloads.Clock(time.monotonic())
    right = workloads.run(workload, 5, clock, "tiny")
    assert right.attempted >= 1 and not right.failures
    out = workloads.run(workload, 5, clock, "tiny", expected=wrong)
    assert len(out.failures) == 1
    assert out.attempted == right.attempted


def test_restore_leaves_no_wrapper():
    modules = [m for n, m in sys.modules.items()
               if n == "durastm" or n.startswith("durastm.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    classes = {v for v in before.values() if isinstance(v, type)}
    methods = {(c, k): v for c in classes for k, v in vars(c).items()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert any(vars(m)[k] is not v for (name, k), v in before.items()
                   for m in modules if m.__name__ == name)
    finally:
        tracer.restore()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert all(vars(c)[k] is v for (c, k), v in methods.items())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload):
    units = dict(spans.PER_LAYER)
    first, second = _unit(workload, "trace"), _unit(workload, "trace")
    assert first["attempted"] >= 1 and not first["failures"]
    counts = [{n: v for n, v in u["layers"].items() if units[n] != "s"}
              for u in (first, second)]
    assert counts[0] == counts[1]
    assert first["cex_events"] == second["cex_events"]
    if workload == "oracle":
        assert all(v == 0 for n, v in first["layers"].items()
                   if n.startswith(("dtml.", "explorer.")))
    if workload == "hunt":
        assert first["cex_events"] > 0


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
