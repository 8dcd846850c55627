"""Smoke test of the benchmark itself.

Run from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload at its smallest size (one pass, untraced and traced)
and checks that the last line parses as JSON with exactly the result keys,
that every metric named in BENCHMARK.json is present with its unit, and that
the checks ran and passed.  It also checks that the benchmark refuses to run,
printing no result, in a directory holding only BENCHMARK.json and the
benchmark's own files.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(spec: dict, workload: str, trace: int) -> list:
    argv = [*spec["command"], "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return [f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    section = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if got != want:
        problems.append(f"metrics differ: {sorted(set(got) ^ set(want))}")
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        problems.append(f"checks: correct={result['correct']} attempted="
                        f"{result['attempted']} failed={result['failed']}")
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        problems.append("a metric value is not a number")
    return [f"{workload} trace {trace}: {p}" for p in problems]


def check_refuses_without_program(spec: dict) -> list:
    bare = Path(".bench_out/bare")
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()!r}"]
    return []


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = check_refuses_without_program(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
            print(f"{workload} trace {trace} done", flush=True)
    for line in problems:
        print(f"FAIL {line}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
