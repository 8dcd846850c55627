"""Benchmark harness for tetrablock.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {campaign,pairs,cli} --seed N \
        --seconds S --trace {0,1}

It starts fresh worker interpreters one at a time (``perfbench/worker.py``)
with the checkout's ``src`` on PYTHONPATH and the BLAS thread counts pinned
to 1.  Untraced runs start seven workers and report the median set-up
time; the fourth measures the workload, so the set-ups fall before and
after it.  Traced runs start one worker.
The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Metric names and units
are those of ``BENCHMARK.json``; ``perfbench/NOTES.md`` explains them.  A
fuller record of each run, with the environment, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT_DIR = Path(".bench_out")
WORKLOADS = ("campaign", "pairs", "cli")
SETUPS = 7
WORKER_TIMEOUT_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def environment(root: Path) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "loadavg_start": list(os.getloadavg()),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "git_commit": commit}


def run_worker(args, root: Path, env: dict, setup_only: bool):
    """Start one worker; return (seconds from start to READY, result or None)."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode} before finishing")
    lines = out.strip().splitlines()
    return setup_s, (None if setup_only else json.loads(lines[-1]))


def main() -> int:
    parser = argparse.ArgumentParser(description="tetrablock benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "tetrablock" / "__init__.py").is_file():
        return fail("run from the root of a tetrablock checkout (no src/tetrablock here)")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}

    env_block = environment(root)
    print(json.dumps({"environment": env_block}), flush=True)
    env = worker_env(root)
    result = None
    n_setups = 1 if args.trace else SETUPS
    setups = []
    try:
        for k in range(n_setups):
            setup_s, out = run_worker(args, root, env, setup_only=k != n_setups // 2)
            setups.append(setup_s)
            result = out or result
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return fail(str(exc))

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        return fail(f"metrics differ from BENCHMARK.json {section}: "
                    f"{sorted(set(got) ^ set(expected))}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"environment": env_block, "args": vars(args), "setups_s": setups, **result}
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2))
    for line in result["failures"]:
        print(f"failed check: {line}", file=sys.stderr)
    print(json.dumps({"correct": result["failed"] == 0 and result["attempted"] > 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
