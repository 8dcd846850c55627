"""One benchmark worker: a fresh interpreter that sets up one workload and
measures it as a closed loop with a single caller.

``perfbench/run.py`` starts it with the checkout's ``src`` on PYTHONPATH and
the BLAS thread counts pinned to 1.  The worker prints ``READY`` once
tetrablock is imported and the inputs are generated.  With ``--setup-only``
it then exits; otherwise it makes passes over the workload's fixed list of
requests for ``--seconds`` and prints one JSON line with the measured
values, each request timed at its best over the passes.

Every call it times is into a public function of tetrablock or a
``python -m tetrablock.cli`` process, and every output it times is checked.
Nothing inside ``src/tetrablock`` is instrumented.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from tetrablock.domains import (G2Point, Location, TetraPoint, e_value_raw,
                                g2_membership, psi_sup, rho_functional,
                                tetra_membership)
from tetrablock.extremals import caratheodory_lower_bound, p_e
from tetrablock.geodesics import (OriginGeodesicParams, certified_left_inverse,
                                  disc_search_upper_bound, eval_origin_geodesic,
                                  lempert_special, origin_geodesic_disc,
                                  origin_lempert, solve_origin_geodesic_through,
                                  verify_disc)
from tetrablock.hyperbolic import BlaschkeMap
from tetrablock.verify import run_suites

OUT_DIR = Path(".bench_out")

# Budget of the generic route: a fifth of the CLI default of `distance
# --budget` (100 000).  The search finds nothing on the generic pair and its
# time grows in proportion to the budget: about 1.2 s against 6 s at the
# default, on a 2-vCPU Xeon.  A run then holds some twenty generic searches
# instead of five, and their best time is steady where the best of five was
# not.
SEARCH_BUDGET = 20000

# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


class Tracer:
    """Spans around the benchmark's own calls into tetrablock.

    A span holds name, start, end, parent span index and request id (a pair
    index, a suite name or an invocation).  Spans stay in memory and are
    written out when the run ends.  ``bookkeeping_s`` is the time spent
    recording them, the direct part of the tracing overhead.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.open: list = []
        self.bookkeeping_s = 0.0

    def span(self, name: str, request):
        return _Span(self, name, request) if self.enabled else contextlib.nullcontext()

    def durations(self, name: str) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "request", "index")

    def __init__(self, tracer: Tracer, name: str, request):
        self.tracer = tracer
        self.name = name
        self.request = request

    def __enter__(self):
        t0 = perf_counter()
        tracer = self.tracer
        parent = tracer.open[-1] if tracer.open else None
        self.index = len(tracer.spans)
        record = [self.name, 0.0, 0.0, parent, self.request]
        tracer.spans.append(record)
        tracer.open.append(self.index)
        record[1] = perf_counter()
        tracer.bookkeeping_s += record[1] - t0
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        tracer = self.tracer
        tracer.spans[self.index][2] = end
        tracer.open.pop()
        tracer.bookkeeping_s += perf_counter() - end
        return False


# ---------------------------------------------------------------------------
# recording and statistics
# ---------------------------------------------------------------------------


class Recorder:
    """Request times, check outcomes and work counts of one run.

    ``times`` maps each request of the workload's fixed list to its time on
    every pass that reached it."""

    def __init__(self):
        self.times: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.searches: dict = {}
        self.counts: dict = {}

    def time(self, request, seconds: float) -> None:
        self.times.setdefault(request, []).append(seconds)

    def best(self) -> list:
        """Each request's best time over the passes."""
        return [min(ts) for ts in self.times.values()]

    def outcome(self, request, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{request}: {'; '.join(problems)}")

    def search(self, route: str, found: int, searched: int = 1) -> None:
        tally = self.searches.setdefault(route, [0, 0])
        tally[0] += found
        tally[1] += searched

    def found_frac(self) -> float:
        """Share of upper-bound searches that found a disc, each route class
        weighted equally so a cheap class cannot hide a failing one."""
        return statistics.fmean(found / searched for found, searched
                                in self.searches.values())


def tail(values: list) -> tuple:
    """(value, percentile) of the highest percentile that has at least ten
    samples beyond it; with 20 samples or fewer that is the median."""
    xs = sorted(values)
    n = len(xs)
    if n > 20:
        return xs[n - 11], 100.0 * (n - 10) / n
    return statistics.median(xs), 50.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def guarded(request, problems: list, fn, *args):
    """Call ``fn``; an exception becomes a failed check of ``request``."""
    try:
        return fn(*args)
    except Exception as exc:  # the workload keeps going and counts it
        problems.append(f"{request} raised {exc!r}")
        return None


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------


def disc_point(rng: np.random.Generator, radius: float) -> complex:
    return radius * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())


def unimodular(rng: np.random.Generator) -> complex:
    return cmath.exp(2j * math.pi * rng.uniform())


def interior_point(rng: np.random.Generator, scale: float = 1.0 / math.sqrt(2.0),
                   e_max: float = 0.999) -> TetraPoint:
    """Rejection sample from the scaled complex cube, away from the boundary."""
    while True:
        c = scale * (rng.uniform(-1.0, 1.0, 3) + 1j * rng.uniform(-1.0, 1.0, 3))
        if e_value_raw(*c) < e_max:
            return TetraPoint(*c)


# ---------------------------------------------------------------------------
# campaign: full ten-suite verification campaigns, in-process
# ---------------------------------------------------------------------------

# Work counts each suite reports at its defaults.  A run whose counts differ
# fails its check, so a suite shrunk for speed cannot pass as a speed-up.
SUITE_COUNTS = {
    "boundary": {"discs": 1000, "samples_per_disc": 100},
    "inclusion": {"discs": 1000, "samples_per_disc": 100},
    "certificate": {"params": 200},
    "lempert": {"pairs": 100},
    "separation": {},
    "necessary": {"origin_params": 200, "g2_grid": 21},
    "g2-window": {"grid_points": 168},
    "membership": {"points": 10000},
    "rho": {"pairs": 100},
    "transport": {"discs": 200},
}


class Campaign:
    """A request is one suite through ``verify.run_suites`` at the run's
    seed; a pass over the ten is one full campaign."""

    def __init__(self, seed: int):
        self.seed = seed
        self.requests = list(SUITE_COUNTS)

    def run(self, tracer: Tracer, rec: Recorder, name: str, index: int) -> None:
        counts = SUITE_COUNTS[name]
        problems: list = []
        with tracer.span(f"verify.{name}", name):
            start = perf_counter()
            results = guarded(name, problems, run_suites, [name], self.seed)
            rec.time(name, perf_counter() - start)
        if results is not None:
            details = results[0].details
            if not results[0].passed:
                problems.append("suite failed")
            got = {key: details.get(key) for key in counts}
            if got != counts:
                problems.append(f"work counts {got} != {counts}")
            rec.counts[f"verify.{name}.samples"] = math.prod(v or 0 for v in got.values())
            if name == "lempert":
                pairs = details["pairs"]
                rec.search("axis-pair", pairs - details["search_failures"], pairs)
        rec.outcome(name, problems)


# ---------------------------------------------------------------------------
# pairs: distance-style reports on seeded pairs in four route classes
# ---------------------------------------------------------------------------

ROUTES = ("axis-pair", "product", "origin-geodesic", "generic")
REFERENCE_PAIR = (TetraPoint(0.0, 0.0, -0.5), TetraPoint(0.0, 0.05, -0.5))
REFERENCE_P_E = 0.1 / 1.45
REFERENCE_C_LOWER = 0.1 * math.sqrt(0.5)


def axis_pair(rng):
    """((0, 0, c), (0, y, c)), or its coordinate swap; Lempert value
    |y| / (1 - |c|)."""
    c = disc_point(rng, 0.6)
    y = disc_point(rng, 0.95 - abs(c))
    if rng.uniform() < 0.5:
        return TetraPoint(0, 0, c), TetraPoint(y, 0, c), lempert_special(y, c)
    return TetraPoint(0, 0, c), TetraPoint(0, y, c), lempert_special(y, c)


def product_pair(rng):
    a1, a2, b1, b2 = (disc_point(rng, 0.8) for _ in range(4))
    return TetraPoint(a1, a2, a1 * a2), TetraPoint(b1, b2, b1 * b2), None


def origin_pair(rng):
    return TetraPoint(0, 0, 0), interior_point(rng), None


def generic_pair(rng):
    """A close random pair that no closed-form route covers."""
    while True:
        w = interior_point(rng, 0.5, 0.9)
        step = 0.05 * (rng.normal(size=3) + 1j * rng.normal(size=3)) / math.sqrt(2.0)
        z = np.array(w.as_tuple()) + step
        if e_value_raw(*z) < 0.95:
            return w, TetraPoint(*z), None


CLOSED_GENERATORS = {"axis-pair": axis_pair, "product": product_pair,
                     "origin-geodesic": origin_pair}
CLOSED_PAIRS_PER_ROUTE = 16
# Every run takes the same generic pair, whatever the seed.  The generic
# search is most of a pass and its cost depends on the pair, so seeded
# generic pairs moved the pass time by 15 to 20 % between runs: it measured
# the pair drawn rather than the program.
GENERIC_SEED = 0


def pair_report(tracer: Tracer, request, route: str, w: TetraPoint, z: TetraPoint) -> dict:
    """The report the benchmark times for one pair: membership, psi_sup and
    rho on both endpoints, then p_e, the Caratheodory lower bound and the
    auto upper-bound search."""
    ends = []
    for point in (w, z):
        with tracer.span("domains.tetra_membership", request):
            location = tetra_membership(point).location
        with tracer.span("domains.psi_sup", request):
            sup = psi_sup(point)
        with tracer.span("domains.rho_functional", request):
            rho = rho_functional(point)
        ends.append((location, sup, rho))
    with tracer.span("extremals.p_e", request):
        pe = p_e(w, z).m_scale
    with tracer.span("extremals.caratheodory_lower_bound", request):
        c_lower = caratheodory_lower_bound(w, z).m_scale
    with tracer.span(f"geodesics.disc_search_upper_bound.{route}", request):
        search = disc_search_upper_bound(w, z, budget=SEARCH_BUDGET)
    return {"ends": ends, "p_e": pe, "c_lower": c_lower, "search": search}


def check_pair(tracer: Tracer, request, route: str, w, z, expected, report) -> list:
    problems = []
    for location, sup, rho in report["ends"]:
        if location is not Location.INTERIOR or not sup < 1.0 or not rho < 1.0:
            problems.append(f"endpoint {location.value}, psi_sup {sup}, rho {rho}")
    if report["p_e"] > report["c_lower"] + 1e-12:
        problems.append("p_e above c_lower")
    search = report["search"]
    if route != "generic" and (not search.found or search.family != route):
        problems.append(f"route {route} gave found={search.found} family={search.family}")
        return problems
    if not search.found:
        # the known defect of the generic route, counted in the found share
        return problems
    k_upper = search.bound.m_scale
    if report["c_lower"] > k_upper + 1e-9:
        problems.append(f"c_lower {report['c_lower']} above k_upper {k_upper}")
    if route == "axis-pair" and abs(k_upper - expected.m_scale) > 1e-9:
        problems.append(f"k_upper {k_upper} != lempert_special {expected.m_scale}")
    if route == "origin-geodesic":
        with tracer.span("geodesics.origin_lempert", request):
            solution = origin_lempert(z)
        if solution is None or abs(k_upper - solution.value.m_scale) > 1e-12:
            problems.append("k_upper differs from origin_lempert")
        if abs(report["c_lower"] - k_upper) > 1e-9:
            problems.append(f"c_lower {report['c_lower']} != k_upper {k_upper}")
    return problems


class Pairs:
    """A request is one pair report.  The run's pairs are the separation
    reference pair, sixteen seeded pairs of each closed route class, then
    the fixed generic pair."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        pools = [[(route, make(rng)) for _ in range(CLOSED_PAIRS_PER_ROUTE)]
                 for route, make in CLOSED_GENERATORS.items()]
        reference = REFERENCE_PAIR + (lempert_special(0.05, -0.5),)
        self.pairs = ([("axis-pair", reference)]
                      + [pair for row in zip(*pools) for pair in row]
                      + [("generic", generic_pair(np.random.default_rng(GENERIC_SEED)))])
        self.requests = list(range(len(self.pairs)))

    def run(self, tracer: Tracer, rec: Recorder, request: int, index: int) -> None:
        route, (w, z, expected) = self.pairs[request]
        problems: list = []
        with tracer.span("pair", request):
            start = perf_counter()
            report = guarded(request, problems, pair_report, tracer, request, route, w, z)
            rec.time(request, perf_counter() - start)
        counts = rec.counts
        counts[f"pairs.{route}.count"] = counts.get(f"pairs.{route}.count", 0) + 1
        if report is not None:
            problems += check_pair(tracer, request, route, w, z, expected, report)
            search = report["search"]
            rec.search(route, int(search.found))
            counts[f"pairs.{route}.found"] = (counts.get(f"pairs.{route}.found", 0)
                                              + int(search.found))
            if search.found:
                key = "geodesics.disc_search_upper_bound.residual_max"
                counts[key] = max(search.residual, counts.get(key, 0.0))
            if request == 0 and not (
                    abs(report["p_e"] - REFERENCE_P_E) < 1e-6
                    and abs(report["c_lower"] - REFERENCE_C_LOWER) < 1e-6):
                problems.append("separation reference values")
        rec.outcome(request, problems)


# ---------------------------------------------------------------------------
# cli: one fresh `python -m tetrablock.cli` process at a time
# ---------------------------------------------------------------------------

COMMANDS = ("member-tetrablock", "member-g2", "distance", "geodesic-eval",
            "geodesic-verify", "geodesic-solve", "sweep-separation")
SWEEP_C = [0.05 + 0.05 * k for k in range(19)]


def ctext(value) -> str:
    """Text the CLI parses back to the same complex number bit for bit; the
    parentheses keep a leading minus sign from reading as an option."""
    value = complex(value)
    return f"({value.real!r}{value.imag:+}j)"


def triple(point: TetraPoint) -> str:
    return ",".join(ctext(c) for c in point)


def cli_inputs(rng: np.random.Generator) -> dict:
    """Inputs for the seven commands."""
    C = rng.uniform(0.0, 0.9)
    zeta = unimodular(rng)
    params = OriginGeodesicParams(C, unimodular(rng), unimodular(rng),
                                  BlaschkeMap(zeta, (C * zeta.conjugate(),), 1.0))
    a, b = disc_point(rng, 0.9), disc_point(rng, 0.9)
    lam0 = disc_point(rng, 0.8)
    return {"point": interior_point(rng), "g2": G2Point(a + b, a * b),
            "params": params, "lam": disc_point(rng, 0.95), "lam0": lam0,
            "solve_point": eval_origin_geodesic(params, lam0)}


def params_args(params: OriginGeodesicParams) -> list:
    phi = params.phi
    return ["--C", repr(params.C), "--phi",
            f"auto:{ctext(phi.zeros[0])},{ctext(phi.unimodular_factor)}",
            "--omega1", ctext(params.omega1), "--omega2", ctext(params.omega2)]


def cli_argv(command: str, inputs: dict, out_path: Path) -> list:
    if command == "member-tetrablock":
        return ["member", "tetrablock", "--json", *(ctext(c) for c in inputs["point"])]
    if command == "member-g2":
        g2 = inputs["g2"]
        return ["member", "g2", "--json", ctext(g2.s), ctext(g2.p)]
    if command == "distance":
        w, z = REFERENCE_PAIR
        return ["distance", triple(w), triple(z), "--json"]
    if command == "geodesic-eval":
        return ["geodesic", "eval", *params_args(inputs["params"]),
                "--lambda", ctext(inputs["lam"]), "--json"]
    if command == "geodesic-verify":
        return ["geodesic", "verify", *params_args(inputs["params"]), "--json"]
    if command == "geodesic-solve":
        return ["geodesic", "solve", "--point", triple(inputs["solve_point"]),
                "--lambda0", ctext(inputs["lam0"]), "--json"]
    return ["sweep", "separation", "--out", str(out_path)]


def cnum_close(payload: dict, value: complex) -> bool:
    return close(payload["re"], value.real) and close(payload["im"], value.imag)


def check_cli(command: str, inputs: dict, proc, out_path: Path) -> list:
    """Exit code 0 (every input is valid and interior), no traceback, and a
    payload equal to the in-process values."""
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit {proc.returncode}")
    if "Traceback" in proc.stderr:
        problems.append("traceback on stderr")
    if problems:
        return problems
    if command == "sweep-separation":
        with open(out_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        out_path.unlink()
        if [float(r["C"]) for r in rows] != SWEEP_C:
            return ["sweep grid differs"]
        for row in rows:
            C = float(row["C"])
            w, z = TetraPoint(0.0, 0.0, -C), TetraPoint(0.0, 0.1 * (1.0 - C), -C)
            if not (close(float(row["p_e_m"]), p_e(w, z).m_scale)
                    and close(float(row["c_lower_m"]), caratheodory_lower_bound(w, z).m_scale)):
                problems.append(f"sweep row C={C} differs")
        return problems
    results = json.loads(proc.stdout)["results"]
    if command == "member-tetrablock":
        point = inputs["point"]
        ok = (results["location"] == "interior"
              and close(results["e_value"]["value"], tetra_membership(point).e_value)
              and close(results["psi_sup"]["value"], psi_sup(point)))
    elif command == "member-g2":
        report = g2_membership(inputs["g2"])
        ok = (results["location"] == "interior"
              and close(results["max_root_modulus"]["value"], report.max_root_modulus))
    elif command == "distance":
        w, z = REFERENCE_PAIR
        search = disc_search_upper_bound(w, z)
        ok = (abs(results["p_e"]["m_scale"] - REFERENCE_P_E) < 1e-6
              and abs(results["c_lower"]["m_scale"] - REFERENCE_C_LOWER) < 1e-6
              and close(results["c_lower"]["m_scale"], caratheodory_lower_bound(w, z).m_scale)
              and results["k_upper"] is not None
              and close(results["k_upper"]["m_scale"], search.bound.m_scale)
              and close(search.bound.m_scale, lempert_special(0.05, -0.5).m_scale)
              and results["sandwich_ok"] is True)
    elif command == "geodesic-eval":
        point = eval_origin_geodesic(inputs["params"], inputs["lam"])
        ok = all(cnum_close(got, want) for got, want in zip(results["point"], point))
    elif command == "geodesic-verify":
        params = inputs["params"]
        report = verify_disc(origin_geodesic_disc(params), certified_left_inverse(params))
        ok = (results["verdict"] == report.verdict.value == "geodesic-verified"
              and close(results["max_e_value"]["value"], report.max_e_value)
              and close(results["left_inverse_residual"]["value"], report.left_inverse_residual))
    else:
        solution = solve_origin_geodesic_through(inputs["solve_point"], inputs["lam0"])
        ok = (results["found"] is True and solution is not None
              and close(results["C"]["value"], solution.params.C)
              and close(results["residual"]["value"], solution.residual)
              and close(results["lempert_m"]["value"], abs(inputs["lam0"])))
    return [] if ok else ["payload differs from in-process values"]


def run_process(argv: list):
    return subprocess.run(argv, capture_output=True, text=True, timeout=120)


def import_times(tracer: Tracer, request) -> dict:
    """Cumulative import seconds of tetrablock and of scipy inside it, from
    ``python -X importtime``."""
    with tracer.span("cli.importtime", request):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tetrablock"],
                              capture_output=True, text=True, timeout=120, check=True)
    entries = []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                depth = len(name) - len(name.lstrip())
                entries.append((name.strip(), int(cumulative), depth))
    scipy = [(depth, us) for name, us, depth in entries if name.split(".")[0] == "scipy"]
    top = min(depth for depth, _ in scipy)
    return {"cli.import_s": sum(us for name, us, _ in entries if name == "tetrablock") / 1e6,
            "cli.import_scipy_s": sum(us for depth, us in scipy if depth == top) / 1e6}


class Cli:
    """A request is one invocation of one of the seven commands, on inputs
    drawn once per run."""

    def __init__(self, seed: int):
        self.inputs = cli_inputs(np.random.default_rng(seed))
        self.out_path = OUT_DIR / f"sweep-{os.getpid()}.csv"
        self.requests = list(COMMANDS)

    def run(self, tracer: Tracer, rec: Recorder, command: str, index: int) -> None:
        request = f"{command}#{index}"
        argv = [sys.executable, "-m", "tetrablock.cli",
                *cli_argv(command, self.inputs, self.out_path)]
        problems: list = []
        with tracer.span(f"cli.{command}", request):
            start = perf_counter()
            proc = guarded(request, problems, run_process, argv)
            rec.time(command, perf_counter() - start)
        if proc is not None:
            problems += guarded(request, problems, check_cli, command, self.inputs,
                                proc, self.out_path) or []
        if command == "distance":
            rec.search("axis-pair", int(not problems))
        rec.outcome(request, problems)
        if tracer.enabled and command == COMMANDS[-1]:
            rec.counts.update(import_times(tracer, index))


WORKLOADS = {"campaign": Campaign, "pairs": Pairs, "cli": Cli}

# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(rec: Recorder) -> tuple:
    best = rec.best()
    tail_value, tail_pct = tail(best)
    metrics = {
        "pass_s": metric(sum(best), "s"),
        "request_ms_p50": metric(1e3 * statistics.median(best), "ms"),
        "request_ms_tail": metric(1e3 * tail_value, "ms"),
        "k_upper_found_frac": metric(rec.found_frac(), "ratio"),
        "ok_frac": metric((rec.attempted - rec.failed) / rec.attempted, "ratio"),
    }
    details = {"requests": len(best), "tail_percentile": tail_pct,
               "times_s": {str(key): ts for key, ts in rec.times.items()},
               "searches": rec.searches}
    return metrics, details


def measure(workload, tracer: Tracer, rec: Recorder, seconds: float) -> int:
    """Run passes over the workload's requests until ``seconds`` have gone
    by, stopping between requests once a first pass is whole.  Returns the
    number of whole passes.

    Each pass runs on the next of the CPUs the worker may use, and the CLI
    processes it starts run there too.  On a shared host each CPU has slow
    phases of its own that can outlast a run; a worker left on one CPU then
    had no fast moment to give a best time."""
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    passes = 0
    try:
        while True:
            os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
            for request in workload.requests:
                if passes and perf_counter() - start >= seconds:
                    return passes
                workload.run(tracer, rec, request, passes)
            passes += 1
    finally:
        os.sched_setaffinity(0, cpus)


def per_layer(rec: Recorder, tracer: Tracer, seconds: float) -> dict:
    """Per-layer metrics from the spans of one traced run."""

    def p50(name: str, scale: float, unit: str):
        return metric(scale * statistics.median(tracer.durations(name)), unit)

    out = {f"cli.{c}.ms_p50": p50(f"cli.{c}", 1e3, "ms") for c in COMMANDS}
    out["cli.import_s"] = metric(rec.counts["cli.import_s"], "s")
    out["cli.import_scipy_s"] = metric(rec.counts["cli.import_scipy_s"], "s")
    for name in SUITE_COUNTS:
        out[f"verify.{name}.s"] = p50(f"verify.{name}", 1.0, "s")
        out[f"verify.{name}.samples"] = metric(rec.counts[f"verify.{name}.samples"], "count")
    out["domains.tetra_membership.us_p50"] = p50("domains.tetra_membership", 1e6, "us")
    out["domains.psi_sup.ms_p50"] = p50("domains.psi_sup", 1e3, "ms")
    out["domains.rho_functional.us_p50"] = p50("domains.rho_functional", 1e6, "us")
    out["extremals.p_e.ms_p50"] = p50("extremals.p_e", 1e3, "ms")
    out["extremals.caratheodory_lower_bound.ms_p50"] = p50(
        "extremals.caratheodory_lower_bound", 1e3, "ms")
    for route in ROUTES:
        name = f"geodesics.disc_search_upper_bound.{route}"
        searched = rec.counts[f"pairs.{route}.count"]
        out[f"{name}.ms_p50"] = p50(name, 1e3, "ms")
        out[f"{name}.found_frac"] = metric(rec.counts[f"pairs.{route}.found"] / searched,
                                           "ratio")
        out[f"pairs.{route}.count"] = metric(searched, "count")
    out["geodesics.disc_search_upper_bound.budget"] = metric(SEARCH_BUDGET, "count")
    out["geodesics.disc_search_upper_bound.residual_max"] = metric(
        rec.counts.get("geodesics.disc_search_upper_bound.residual_max", 0.0), "raw")
    out["geodesics.origin_lempert.ms_p50"] = p50("geodesics.origin_lempert", 1e3, "ms")
    out["trace.spans"] = metric(len(tracer.spans), "count")
    out["trace.bookkeeping_frac"] = metric(tracer.bookkeeping_s / seconds, "ratio")
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer(bool(args.trace))
    rec = Recorder()
    start = perf_counter()
    passes = measure(workload, tracer, rec, args.seconds)
    metrics, details = end_to_end(rec)
    details["passes"] = passes
    details["measured_s"] = perf_counter() - start
    attempted, failed, failures = rec.attempted, rec.failed, list(rec.failures)

    if args.trace:
        # One pass of each other workload, so every traced run reports
        # every layer; the metric map in NOTES.md says which workload each
        # layer metric belongs to.
        traced_pass = metrics["pass_s"]
        for name, cls in WORKLOADS.items():
            if name != args.workload:
                other, probe = Recorder(), cls(args.seed)
                with tracer.span(name, "probe"):
                    for request in probe.requests:
                        probe.run(tracer, other, request, 0)
                attempted += other.attempted
                failed += other.failed
                failures += other.failures
                for key, value in other.counts.items():
                    rec.counts.setdefault(key, value)
        metrics = per_layer(rec, tracer, perf_counter() - start)
        metrics["trace.pass_s"] = traced_pass
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")

    print(json.dumps({"attempted": attempted, "failed": failed, "failures": failures,
                      "metrics": metrics, "details": details}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
