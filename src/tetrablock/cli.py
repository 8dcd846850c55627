"""Command-line surface: membership queries, distance reports, geodesic
evaluation/verification/solving, verification campaigns, and grid sweeps.

Reports are deterministic: the same invocation (with the same ``--seed``)
produces byte-identical output.  Every numeric payload carries its scale
label (``m_scale`` / ``p_scale`` / ``raw``).

Exit codes: 0 ok (or Interior for ``member``), 1 Boundary, 2 Exterior,
64 usage error, 65 invariant violation, 70 verification failure, 74 I/O
error.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import sys
from typing import Dict, List, Optional, Sequence

from . import __version__
from .domains import (DEFAULT_BOUNDARY_TOL, G2Point, Location, TetraPoint,
                      g2_membership, psi_sup, tetra_membership)
from .errors import DomainError
from .extremals import G2FMap
from .geodesics import (DiscVerdict, G2GeodesicParams, GeneralDiscParams,
                        OriginGeodesicParams, certified_left_inverse,
                        disc_search_upper_bound, eval_general_disc,
                        eval_origin_geodesic, g2_geodesic_disc,
                        g2_origin_geodesic, general_disc, lempert_special,
                        origin_geodesic_disc, pair_report,
                        solve_origin_geodesic_through, verify_disc)
from .hyperbolic import BlaschkeMap, HyperbolicDistance
from .verify import ALL_SUITES, lempert_grid, run_suites

EXIT_OK = 0
EXIT_BOUNDARY = 1
EXIT_EXTERIOR = 2
EXIT_USAGE = 64
EXIT_INVARIANT = 65
EXIT_VERIFICATION = 70
EXIT_IO = 74

SCHEMA_VERSION = 1
#: limit on the rows of a sweep: round((c_max - c_min) / c_step) + 1 for
#: separation, grid_n^2 for lempert
MAX_SWEEP_ROWS = 100_000
#: limit on ``geodesic verify --samples``, the angles on each of the nine
#: radii of the sweep grid
MAX_SAMPLES = 10_000


class _UsageExit(Exception):
    def __init__(self, message: str):
        super().__init__(message)


class Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 64."""

    def error(self, message):
        raise _UsageExit(message)


# ---------------------------------------------------------------------------
# parsing and serialization helpers
# ---------------------------------------------------------------------------


def parse_complex(text: str) -> complex:
    """Parse 'a', 'a+bi', 'bi', 'i' (also with 'j') into a finite complex
    number."""
    lowered = text.strip().replace(" ", "").lower()
    if "nan" in lowered or "inf" in lowered:
        raise _UsageExit(f"non-finite complex literal {text!r}")
    cleaned = lowered.replace("i", "j")
    if not cleaned:
        raise _UsageExit("empty complex literal")
    try:
        value = complex(cleaned)
    except ValueError:
        raise _UsageExit(f"cannot parse complex literal {text!r}")
    if not cmath.isfinite(value):
        raise _UsageExit(f"non-finite complex literal {text!r}")
    return value


def parse_point(text: str, n: int) -> tuple:
    parts = text.split(",")
    if len(parts) != n:
        raise _UsageExit(f"expected {n} comma-separated components, got {text!r}")
    return tuple(parse_complex(p) for p in parts)


def parse_phi(text: str) -> BlaschkeMap:
    """Self-map spec: 'id', 'const:c', 'auto:a[,omega]' or
    'blaschke:omega|scale|z1;z2;...'."""
    if text == "id":
        return BlaschkeMap.identity()
    if text.startswith("const:"):
        return BlaschkeMap.constant(parse_complex(text[6:]))
    if text.startswith("auto:"):
        parts = text[5:].split(",")
        zero = parse_complex(parts[0])
        omega = parse_complex(parts[1]) if len(parts) > 1 else 1.0
        return BlaschkeMap(omega, (zero,), 1.0)
    if text.startswith("blaschke:"):
        parts = text[9:].split("|")
        if len(parts) != 3:
            raise _UsageExit("blaschke spec needs omega|scale|zeros")
        omega = parse_complex(parts[0])
        scale = parse_complex(parts[1])
        if scale.imag != 0.0:
            raise _UsageExit(f"blaschke scale must be real, got {parts[1]!r}")
        zeros = tuple(parse_complex(p) for p in parts[2].split(";") if p)
        return BlaschkeMap(omega, zeros, scale.real)
    raise _UsageExit(f"cannot parse self-map spec {text!r}")


def raw(value: float) -> Dict[str, object]:
    return {"scale": "raw", "value": float(value)}


def cnum(value: complex) -> Dict[str, object]:
    value = complex(value)
    return {"scale": "raw", "re": value.real, "im": value.imag}


def dist(value: HyperbolicDistance) -> Dict[str, float]:
    return {"m_scale": value.m_scale, "p_scale": value.p_scale}


def envelope(command: str, inputs: Dict, results: Dict, diagnostics: Dict) -> Dict:
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "inputs": inputs, "results": results, "diagnostics": diagnostics}


def emit(env: Dict, as_json: bool, human_lines: Sequence[str]) -> None:
    if as_json:
        print(json.dumps(env, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


_LOCATION_EXIT = {Location.INTERIOR: EXIT_OK, Location.BOUNDARY: EXIT_BOUNDARY,
                  Location.EXTERIOR: EXIT_EXTERIOR}


def cmd_member(args) -> int:
    tol = args.tol
    if not (math.isfinite(tol) and tol > 0):
        raise _UsageExit("--tol must be finite and positive")
    if args.domain == "tetrablock":
        if len(args.components) != 3:
            raise _UsageExit("tetrablock needs 3 components")
        point = TetraPoint(*(parse_complex(c) for c in args.components))
        report = tetra_membership(point, tol)
        sup = psi_sup(point) if abs(point.z1) < 1.0 else None
        results = {"location": report.location.value, "e_value": raw(report.e_value),
                   "psi_sup": raw(sup) if sup is not None else None}
        human = [f"location: {report.location.value}",
                 f"e_value (raw): {report.e_value!r}"]
        if sup is not None:
            human.append(f"psi_sup (raw): {sup!r}")
        inputs = {"domain": "tetrablock", "point": [cnum(c) for c in point]}
        location = report.location
    else:
        if len(args.components) != 2:
            raise _UsageExit("g2 needs 2 components")
        point = G2Point(*(parse_complex(c) for c in args.components))
        report = g2_membership(point, tol)
        results = {"location": report.location.value,
                   "max_root_modulus": raw(report.max_root_modulus),
                   "roots": [cnum(r) for r in report.roots]}
        human = [f"location: {report.location.value}",
                 f"max_root_modulus (raw): {report.max_root_modulus!r}"]
        inputs = {"domain": "g2", "point": [cnum(c) for c in point]}
        location = report.location
    env = envelope("member", inputs, results,
                   {"tolerance": tol, "version": __version__})
    emit(env, args.json, human)
    return _LOCATION_EXIT[location]


def cmd_distance(args) -> int:
    w = TetraPoint(*parse_point(args.w, 3))
    z = TetraPoint(*parse_point(args.z, 3))
    report = pair_report(w, z)
    search, closed, k_upper = report.search, report.closed_form, report.search.bound
    results = {
        "p_e": dist(report.p_e),
        "c_lower": dist(report.c_lower),
        "k_upper": dist(k_upper) if k_upper is not None else None,
        "k_upper_family": search.family,
        "k_upper_residual": raw(search.residual) if k_upper is not None else None,
        "k_upper_reason": search.reason,
        "closed_form": dist(closed) if closed is not None else None,
        "gap": raw(report.gap) if k_upper is not None else None,
        "sandwich_ok": report.sandwich_ok,
    }
    human = [f"{name}: m_scale {d.m_scale!r}, p_scale {d.p_scale!r}"
             for name, d in (("p_e", report.p_e), ("c_lower", report.c_lower))]
    if k_upper is not None:
        human += [f"k_upper: m_scale {k_upper.m_scale!r} (family {search.family})",
                  f"gap: m_scale {report.gap!r}"]
    else:
        human.append(f"k_upper: not found ({search.reason})")
    if closed is not None:
        human.append(f"closed_form: m_scale {closed.m_scale!r}")
    human.append("sandwich_ok: unknown (no upper bound found)" if k_upper is None
                 else f"sandwich_ok: {report.sandwich_ok}")
    env = envelope("distance",
                   {"w": [cnum(c) for c in w], "z": [cnum(c) for c in z]},
                   results,
                   {"tolerance": DEFAULT_BOUNDARY_TOL, "version": __version__})
    emit(env, args.json, human)
    return EXIT_VERIFICATION if report.sandwich_ok is False else EXIT_OK


def _build_tetra_params(args):
    phi = parse_phi(args.phi)
    if args.psi is not None:
        return GeneralDiscParams(args.C, parse_complex(args.omega1),
                                 parse_complex(args.omega2), phi, parse_phi(args.psi))
    return OriginGeodesicParams(args.C, parse_complex(args.omega1),
                                parse_complex(args.omega2), phi)


def cmd_geodesic(args) -> int:
    if args.action == "eval":
        lam = parse_complex(args.lam)
        if args.domain == "g2":
            params = G2GeodesicParams(args.C, parse_complex(args.omega))
            point = g2_origin_geodesic(params, lam)
            results = {"point": [cnum(c) for c in point]}
            human = [f"f(lambda) = ({point.s!r}, {point.p!r})"]
            inputs = {"domain": "g2", "C": args.C, "omega": cnum(params.omega),
                      "lambda": cnum(lam)}
        else:
            params = _build_tetra_params(args)
            if isinstance(params, GeneralDiscParams):
                point = eval_general_disc(params, lam)
            else:
                point = eval_origin_geodesic(params, lam)
            results = {"point": [cnum(c) for c in point]}
            human = [f"f(lambda) = ({point.z1!r}, {point.z2!r}, {point.z3!r})"]
            inputs = {"domain": "tetrablock", "C": args.C, "phi": args.phi,
                      "psi": args.psi, "lambda": cnum(lam)}
        env = envelope("geodesic-eval", inputs, results,
                       {"version": __version__})
        emit(env, args.json, human)
        return EXIT_OK

    if args.action == "verify":
        if not 1 <= args.samples <= MAX_SAMPLES:
            raise _UsageExit(f"--samples must lie in [1, {MAX_SAMPLES}]")
        if args.domain == "g2":
            params = G2GeodesicParams(args.C, parse_complex(args.omega))
            report = verify_disc(g2_geodesic_disc(params), G2FMap(params.omega),
                                 n_angles=args.samples)
            inputs = {"domain": "g2", "C": args.C, "omega": cnum(params.omega)}
        else:
            params = _build_tetra_params(args)
            if isinstance(params, GeneralDiscParams):
                report = verify_disc(general_disc(params), None, n_angles=args.samples)
            else:
                report = verify_disc(origin_geodesic_disc(params),
                                     certified_left_inverse(params),
                                     n_angles=args.samples)
            inputs = {"domain": "tetrablock", "C": args.C, "phi": args.phi,
                      "psi": args.psi}
        results = {"verdict": report.verdict.value,
                   "max_e_value": raw(report.max_e_value),
                   "left_inverse_residual": raw(report.left_inverse_residual),
                   "samples": report.samples}
        human = [f"verdict: {report.verdict.value}",
                 f"max in-domain functional (raw): {report.max_e_value!r}",
                 f"left-inverse residual (raw): {report.left_inverse_residual!r}"]
        env = envelope("geodesic-verify", inputs, results,
                       {"samples": report.samples, "version": __version__})
        emit(env, args.json, human)
        return EXIT_OK if report.verdict is not DiscVerdict.FAILED else EXIT_VERIFICATION

    # solve
    z = TetraPoint(*parse_point(args.point, 3))
    lam0 = parse_complex(args.lambda0)
    solution = solve_origin_geodesic_through(z, lam0)
    if solution is None:
        env = envelope("geodesic-solve",
                       {"point": [cnum(c) for c in z], "lambda0": cnum(lam0)},
                       {"found": False}, {"version": __version__})
        emit(env, args.json, ["not found"])
        return EXIT_VERIFICATION
    phi = solution.params.phi
    results = {
        "found": True,
        "C": raw(solution.params.C),
        "omega1": cnum(solution.params.omega1),
        "omega2": cnum(solution.params.omega2),
        "phi": {"unimodular_factor": cnum(phi.unimodular_factor),
                "zeros": [cnum(a) for a in phi.zeros],
                "scale": raw(phi.scale),
                "constant_offset": cnum(phi.constant_offset) if phi.is_constant else None},
        "swapped": solution.swapped,
        "residual": raw(solution.residual),
        "lempert_m": raw(abs(solution.lam0)),
    }
    human = [f"C = {solution.params.C!r}",
             f"omega1 = {solution.params.omega1!r}",
             f"omega2 = {solution.params.omega2!r}",
             f"phi degree = {phi.degree}, swapped = {solution.swapped}",
             f"residual (raw) = {solution.residual!r}"]
    env = envelope("geodesic-solve",
                   {"point": [cnum(c) for c in z], "lambda0": cnum(lam0)},
                   results, {"version": __version__})
    emit(env, args.json, human)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise _UsageExit("--seed must be non-negative")
    names = list(ALL_SUITES) if "all" in args.suite else args.suite
    results = run_suites(names, seed=args.seed)
    payload = []
    human = []
    for res in results:
        payload.append({"suite": res.name, "passed": res.passed,
                        "details": {k: v for k, v in sorted(res.details.items())}})
        human.append(f"{'PASS' if res.passed else 'FAIL'} {res.summary()}")
    all_passed = all(r.passed for r in results)
    env = envelope("verify", {"suites": names, "seed": args.seed},
                   {"suites": payload, "all_passed": all_passed},
                   {"seed": args.seed, "version": __version__})
    emit(env, args.json, human)
    return EXIT_OK if all_passed else EXIT_VERIFICATION


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_rows(path: str, rows: List[Dict[str, object]], fmt: str,
                columns: List[str]) -> None:
    with open(path, "w", newline="") as handle:
        if fmt == "csv":
            writer = csv.writer(handle, quoting=csv.QUOTE_MINIMAL)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_format_cell(row[c]) for c in columns])
        else:
            for row in rows:
                handle.write(json.dumps({c: row[c] for c in columns},
                                        sort_keys=True) + "\n")


def cmd_sweep(args) -> int:
    rows: List[Dict[str, object]] = []
    if args.quantity == "separation":
        if not args.c_step > 0:
            raise _UsageExit("--c-step must be positive")
        if not all(math.isfinite(v) for v in (args.c_min, args.c_max, args.c_step, args.lam)):
            raise _UsageExit("--c-min, --c-max, --c-step and --lam must be finite")
        span = (args.c_max - args.c_min) / args.c_step
        n_steps = int(round(span)) + 1 if math.isfinite(span) else math.inf
        if n_steps > MAX_SWEEP_ROWS:
            raise _UsageExit(f"--c-step too small: at most {MAX_SWEEP_ROWS} rows")
        lam = args.lam
        for k in range(max(n_steps, 0)):
            C = args.c_min + k * args.c_step
            if C <= 0.0 or C >= 1.0 or C > args.c_max + 1e-12:
                continue
            # magic_f o sigma vanishes at both points: the family is magic_f
            report = pair_report((0.0, 0.0, -C), (0.0, lam * (1.0 - C), -C), search=False)
            rows.append({"C": C, "c_lower_m": report.c_lower.m_scale, "lam_modulus": lam,
                         "magic_lower_m": report.lower.magic_f,
                         "p_e_m": report.p_e.m_scale, "separated": report.separated})
        columns = ["C", "c_lower_m", "lam_modulus", "magic_lower_m", "p_e_m",
                   "separated"]
    else:  # lempert
        n = args.grid_n
        if n < 1:
            raise _UsageExit("--grid-n must be positive")
        if n * n > MAX_SWEEP_ROWS:
            raise _UsageExit(f"--grid-n too large: at most {MAX_SWEEP_ROWS} rows")
        for z, w in lempert_grid(n):
            closed = lempert_special(z, w).m_scale
            search = disc_search_upper_bound(TetraPoint(0, 0, w), TetraPoint(0, z, w))
            k_upper = search.bound.m_scale if search.found else math.nan
            rows.append({"closed_form_m": closed,
                         "equal_within_tol": bool(search.found
                                                  and abs(k_upper - closed) < 1e-6),
                         "k_upper_m": k_upper,
                         "w_im": w.imag, "w_re": w.real,
                         "z_im": z.imag, "z_re": z.real})
        columns = ["closed_form_m", "equal_within_tol", "k_upper_m", "w_im",
                   "w_re", "z_im", "z_re"]
    _write_rows(args.out, rows, args.format, columns)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> Parser:
    parser = Parser(prog="tetrablock",
                    description="Invariant distances and complex geodesics on "
                                "the tetrablock and the symmetrized bidisc.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)

    p_member = sub.add_parser("member", help="membership classification")
    p_member.add_argument("domain", choices=["tetrablock", "g2"])
    p_member.add_argument("components", nargs="+",
                          help="complex components, e.g. 0 0.3+0.1i 0.5")
    p_member.add_argument("--tol", type=float, default=DEFAULT_BOUNDARY_TOL)
    p_member.add_argument("--json", action="store_true")
    p_member.set_defaults(func=cmd_member)

    p_dist = sub.add_parser("distance", help="invariant-distance report for a pair")
    p_dist.add_argument("w", help="comma-separated triple, e.g. 0,0,-0.5")
    p_dist.add_argument("z")
    p_dist.add_argument("--json", action="store_true")
    p_dist.set_defaults(func=cmd_distance)

    p_geo = sub.add_parser("geodesic", help="evaluate / verify / solve discs")
    p_geo.add_argument("action", choices=["eval", "verify", "solve"])
    p_geo.add_argument("--domain", choices=["tetrablock", "g2"], default="tetrablock")
    p_geo.add_argument("--C", type=float, default=0.0)
    p_geo.add_argument("--phi", default="id", help="id | const:c | auto:a[,w] | "
                                                   "blaschke:w|s|z1;z2")
    p_geo.add_argument("--psi", default=None,
                       help="optional second self-map (general disc family)")
    p_geo.add_argument("--omega1", default="1")
    p_geo.add_argument("--omega2", default="1")
    p_geo.add_argument("--omega", default="1", help="g2 family parameter")
    p_geo.add_argument("--lambda", dest="lam", default="0",
                       help="disc parameter for eval")
    p_geo.add_argument("--samples", type=int, default=16,
                       help="angles per radius in verification sweeps")
    p_geo.add_argument("--point", default=None, help="solve target z1,z2,z3")
    p_geo.add_argument("--lambda0", default=None, help="solve preimage")
    p_geo.add_argument("--json", action="store_true")
    p_geo.set_defaults(func=cmd_geodesic)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", action="append",
                          choices=sorted(ALL_SUITES) + ["all"], default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="write a CSV/JSONL grid sweep")
    p_sweep.add_argument("quantity", choices=["separation", "lempert"])
    p_sweep.add_argument("--c-min", type=float, default=0.05)
    p_sweep.add_argument("--c-max", type=float, default=0.95)
    p_sweep.add_argument("--c-step", type=float, default=0.05)
    p_sweep.add_argument("--lam", type=float, default=0.1)
    p_sweep.add_argument("--grid-n", type=int, default=10)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "verify" and args.suite is None:
            args.suite = ["all"]
        if args.command == "geodesic" and args.action == "solve":
            if args.point is None or args.lambda0 is None:
                raise _UsageExit("solve needs --point and --lambda0")
        return args.func(args)
    except _UsageExit as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
