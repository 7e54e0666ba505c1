"""Smoke self-test of the benchmark.

    python3 perfbench/smoke.py

Run from the root of a source checkout.  For every workload in
BENCHMARK.json it runs one op untraced and traced, and checks that the
result line has exactly the contract's keys and every metric BENCHMARK.json
names, with its unit.  It then checks that the runner refuses, with a
non-zero exit and no result line, to run in a directory without the
absorbkit sources.  Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys


def run(bench: dict, cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        bench["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                            "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, expected: dict) -> list:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metrics missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is not None and (m.get("unit") != unit
                              or not isinstance(m.get("value"), (int, float))):
            problems.append(f"{name}: {m}")
    return problems


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failed = False
    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems = check_result(run(bench, root, w, trace), expected[trace])
            failed |= bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {w} --trace {trace}"
                  + "".join(f"\n     {p}" for p in problems))
    # a directory holding only BENCHMARK.json and the benchmark must be refused
    bare = os.path.join(root, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bench, bare, bench["workloads"][0]["name"], 0)
    refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    failed |= not refused
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run without sources "
          f"(exit {proc.returncode})")
    shutil.rmtree(bare, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
