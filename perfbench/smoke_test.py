#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Runs every workload of BENCHMARK.json at the smallest size, untraced and
traced, and checks that each result names exactly the metrics BENCHMARK.json
declares, with their units, and that no request failed its checks.

    python3 perfbench/smoke_test.py        # from the root of a checkout
"""

import json
import os
import subprocess
import sys


def check(workload, trace, spec):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "min"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    errors = []
    if proc.returncode != 0:
        errors.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    if not lines:
        return errors + ["no output"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted={result.get('attempted')}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(expected):
        errors.append(f"metric names differ: missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        if name in got and got[name].get("unit") != unit:
            errors.append(f"{name}: unit {got[name].get('unit')} != {unit}")
        if name in got and not isinstance(got[name].get("value"), (int, float)):
            errors.append(f"{name}: value {got[name].get('value')!r}")
    if not trace:
        for name in expected:
            if name in got and got[name]["value"] <= 0:
                errors.append(f"{name} is {got[name]['value']}, end-to-end metrics are never 0")
    return errors


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = check(workload, trace, spec)
            status = "ok" if not errors else "FAIL: " + "; ".join(errors)
            print(f"{workload} --trace {trace}: {status}")
            failures += bool(errors)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
