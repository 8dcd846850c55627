"""Run-to-run spread of the end-to-end metrics.

Run from the root of a checkout:

    python3 perfbench/spread.py --runs 10 [--first-seed 100] [--workloads pairs]

Runs the benchmark ``--runs`` times per workload, each time with another
seed, alternating workloads so a load spike hits them all alike.  For each
workload and end-to-end metric it prints the median and the spread: the
distance between the first and third quartiles (``statistics.quantiles``,
n=4) as a share of the median, beside the metric's bound from
``BENCHMARK.json``.  All values are written to ``.bench_out/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="end-to-end metric spread")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args()

    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in args.workloads}
    for k in range(args.runs):
        seed = args.first_seed + k
        for workload in args.workloads:
            argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect {result}", file=sys.stderr)
                return 1
            for name, m in result["metrics"].items():
                values[workload][name].append(m["value"])
            print(f"run {k + 1}/{args.runs} {workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload, metrics in values.items():
        for name, xs in metrics.items():
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median
            report[f"{workload}/{name}"] = {"median": median, "spread": spread,
                                            "bound": bounds[name], "values": xs}
            flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{workload:9s} {name:20s} median {median:<12.6g} "
                  f"spread {spread:.4f} bound {bounds[name]}{flag}")
    Path(".bench_out").mkdir(exist_ok=True)
    Path(".bench_out/spread.json").write_text(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
