#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload briefly at --scale tiny, untraced and traced, through
perfbench/run.py, and asserts that each declared metric is printed with its
unit, that every end-to-end metric the workload reports beyond the declared
set is printed with its unit, that the outputs were correct, and that
failed_op_share is 0.  Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every workload the driver knows (write_churn is run but not gated), with
# the report-only end-to-end metrics it must print besides the gated ones.
COMMON = {"latency_p50_us": "us", "latency_p99_us": "us",
          "failed_op_share": "fraction"}
EXTRA = {
    "lookup_large": {"op_p50_us": "us", "op_p99_us": "us"},
    "write_churn": {"op_p50_us": "us", "op_p99_us": "us"},
    "scan_ingest": {"batch_p50_ms": "ms", "batch_p99_ms": "ms",
                    "scan_keys_per_s": "keys/s", "scan_p50_us": "us",
                    "scan_p99_us": "us"},
}


def report_lines(stdout):
    found = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            found[parts[1]] = (float(parts[2]), parts[3])
    return found


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for name in EXTRA:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", name, "--seed", "7", "--seconds", "2",
                   "--trace", str(trace), "--scale", "tiny"]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True, timeout=900)
            assert run.returncode == 0, f"{name} trace={trace}: exit {run.returncode}"
            result = json.loads(run.stdout.rstrip("\n").splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, f"{name}: incorrect output"
            assert result["failed"] == 0 and result["attempted"] >= 1
            declared = spec["per_layer" if trace else "end_to_end"]
            assert set(result["metrics"]) == {m["name"] for m in declared}
            for m in declared:
                assert result["metrics"][m["name"]]["unit"] == m["unit"], m
            lines = report_lines(run.stdout)
            expected = dict(EXTRA[name], **COMMON)
            for metric, unit in expected.items():
                assert metric in lines, f"{name}: {metric} not printed"
                assert lines[metric][1] == unit, f"{name}: {metric} unit"
            assert lines["failed_op_share"][0] == 0.0
            print(f"ok {name} trace={trace}")


if __name__ == "__main__":
    main()
