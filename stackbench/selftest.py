#!/usr/bin/env python3
"""Short-mode self-test of the serving-stack benchmark.

    python3 stackbench/selftest.py

Runs every workload in --short mode (tiny inputs), untraced and traced, on
the default seed and on the held-out seed, through stackbench/run.py from
the repository root. Each run must exit 0 with every correctness check
passing, and its result line must carry exactly the metrics BENCHMARK.json
names for that mode, each with the unit BENCHMARK.json gives it. Exits
non-zero on the first mismatch.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
# Never used while the benchmark was tuned; correctness must hold here too.
HELD_OUT_SEED = 9001


def fail(message):
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def check_spec(spec):
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            if not metric.get("unit") or metric.get("better") not in ("lower", "higher"):
                fail(f"{section} metric {metric.get('name')} lacks a unit or a direction")


def run_once(workload, seed, trace, spec):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "3", "--trace", str(trace), "--short"]
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    label = f"{workload} seed={seed} trace={trace}"
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"{label}: no output (exit {run.returncode})")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{label}: result keys {sorted(result)}")
    if run.returncode != 0 or result["correct"] is not True or result["failed"] != 0:
        fail(f"{label}: exit {run.returncode}, correct={result['correct']}, "
             f"failed={result['failed']} of {result['attempted']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{label}: attempted must be a positive whole number")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(expected):
        fail(f"{label}: missing {sorted(set(expected) - set(got))}, "
             f"unexpected {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        if got[name]["unit"] != unit or not isinstance(got[name]["value"], (int, float)):
            fail(f"{label}: {name} = {got[name]} (unit should be {unit})")
    print(f"selftest: ok {label} ({result['attempted']} operations and checks)")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    for workload in [w["name"] for w in spec["workloads"]]:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace in (0, 1):
                run_once(workload, seed, trace, spec)
    print("selftest: all runs passed")


if __name__ == "__main__":
    main()
