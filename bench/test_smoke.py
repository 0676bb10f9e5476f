"""Toy-size smoke test of the benchmark harness (few paths, one parameter set).

    python -m pytest bench/test_smoke.py

Runs every workload at toy sizes, untraced and traced, and checks that the
metric names and units match BENCHMARK.json, that every operation's check
ran, and that the failure count is reported against its base.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("mc_steps", "mc_jumps", "solve", "cli")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def run_bench(workload: str, trace: int, cwd: str = ROOT, script: str | None = None):
    script = script or os.path.join(BENCH, "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, cwd=cwd, timeout=600)


def check_result(proc, metric_spec):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in metric_spec}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
        assert value["value"] == value["value"]      # not NaN

    # every operation's check ran: one line per attempted operation
    ops = [line for line in lines if line.startswith("op ")]
    assert len(ops) == result["attempted"] >= 1
    assert all(re.search(r" (ok|FAIL)", line) for line in ops)
    assert sum(" FAIL" in line for line in ops) == result["failed"]

    # the failure fraction carries its base
    frac = next(line for line in lines if line.startswith("metric fail_frac "))
    assert f"(failed={result['failed']} attempted={result['attempted']})" in frac
    return lines, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines, result = check_result(run_bench(workload, 0), SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0.0
    # the report lines give every metric with its unit and sample count
    for m in SPEC["end_to_end"]:
        assert any(re.match(rf"metric {m['name']} = \S+ {m['unit']} \(n=\d+", line)
                   for line in lines)
    if workload.startswith("mc_"):
        assert any(line.startswith("metric path_steps_per_s ") for line in lines)
        assert any(line.startswith("metric se2_s ") for line in lines)
    if workload == "cli":
        for cmd in ("solve", "price", "compare"):
            assert any(line.startswith(f"metric cli.{cmd}_s ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    _, result = check_result(run_bench(workload, 1), SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if workload.startswith("mc_"):
        assert metrics["simulate.path_steps"] > 0
        assert metrics["pricing.fanout_efficiency"] > 0.0
    if workload == "solve":
        assert metrics["agents.solve_signal_s.canon"] > 0.0
        assert metrics["quadrature.calls"] > 0
    if workload == "cli":
        assert metrics["cli.report_bytes.solve"] > 0
        assert metrics["cli.import_s"] > 0.0
        assert metrics["cli.price_s"] > 0.0
    assert os.path.isfile(os.path.join(ROOT, ".bench_out", f"{workload}-spans.json"))


def test_refuses_without_program_source():
    lonely = os.path.join(ROOT, ".bench_out", "lonely")
    shutil.rmtree(lonely, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(lonely, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lonely)
    proc = run_bench("solve", 0, cwd=lonely,
                     script=os.path.join(lonely, "bench", "run.py"))
    shutil.rmtree(lonely)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
