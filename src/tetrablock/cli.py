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
import re
import sys
from typing import Dict, List, Optional, Sequence

from . import __version__
from .domains import (DEFAULT_BOUNDARY_TOL, G2Point, Location, TetraPoint,
                      g2_membership, psi_sup, tetra_membership)
from .errors import DomainError
from .extremals import G2FMap
from .geodesics import (DiscVerdict, G2GeodesicParams, GeneralDiscParams,
                        OriginGeodesicParams, certified_left_inverse,
                        g2_geodesic_disc, general_disc, origin_geodesic_disc,
                        pair_report, solve_origin_geodesic_through, verify_disc)
from .hyperbolic import BlaschkeMap, HyperbolicDistance, require_disc_point
from .verify import ALL_SUITES, LEMPERT_TOL, lempert_rows, run_suites

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
    """A usage error: ``main`` prints it and exits 64."""


class Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 64 and no
    abbreviated options, so that an option of one action never passes for
    a prefix of another's (``--lambda`` for ``solve --lambda0``).

    A token of one ``-`` and a character other than ``-`` is a value unless
    it is an option of the parser (``-h``): argparse takes only
    ``-digits`` and ``-digits.digits`` as numbers, so ``-1e-3``, ``-.5``,
    ``-i``, ``-inf`` and ``-1e-3,0,0`` would read as unknown options.  Every
    other option of this CLI starts with ``--``, so ``--`` is never needed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-[^-].*")

    def error(self, message):
        raise _UsageExit(message)


def _checked(convert, requirement: str, ok):
    """An argparse ``type``: ``convert`` the text, reject a value failing ``ok``."""
    def check(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value
    check.__name__ = convert.__name__  # argparse's "invalid float value"
    return check


_finite = _checked(float, "finite", math.isfinite)
_finite_positive = _checked(float, "finite and positive",
                            lambda v: math.isfinite(v) and v > 0)
_positive = _checked(int, "positive", lambda n: n >= 1)
_non_negative = _checked(int, "non-negative", lambda n: n >= 0)
_samples = _checked(int, f"in [1, {MAX_SAMPLES}]", lambda n: 1 <= n <= MAX_SAMPLES)


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
        if len(parts) > 2:
            raise _UsageExit(f"auto spec is a zero and an optional omega, got {text!r}")
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
        if not zeros:
            raise _UsageExit("blaschke spec needs a zero; a constant map is const:c")
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
    coords = tuple(parse_complex(c) for c in args.components)
    if args.domain == "tetrablock":
        point = TetraPoint(*coords)
        report = tetra_membership(point, args.tol)
        try:
            sup = psi_sup(point)
        except DomainError:  # |z1| >= 1, by psi_sup's own modulus
            sup = None
        results = {"location": report.location.value, "e_value": raw(report.e_value),
                   "psi_sup": raw(sup) if sup is not None else None}
        human = [f"location: {report.location.value}",
                 f"e_value (raw): {report.e_value!r}"]
        if sup is not None:
            human.append(f"psi_sup (raw): {sup!r}")
    else:
        point = G2Point(*coords)
        report = g2_membership(point, args.tol)
        results = {"location": report.location.value,
                   "max_root_modulus": raw(report.max_root_modulus),
                   "roots": [cnum(r) for r in report.roots]}
        human = [f"location: {report.location.value}",
                 f"max_root_modulus (raw): {report.max_root_modulus!r}"]
    env = envelope("member", {"domain": args.domain, "point": [cnum(c) for c in point]},
                   results, {"tolerance": args.tol, "version": __version__})
    emit(env, args.json, human)
    return _LOCATION_EXIT[report.location]


def cmd_distance(args) -> int:
    w = TetraPoint(*parse_point(args.w, 3))
    z = TetraPoint(*parse_point(args.z, 3))
    report = pair_report(w, z)
    search, closed, k_upper = report.search, report.closed_form, report.search.bound
    results = {
        "p_e": dist(report.p_e),
        "c_lower": dist(report.c_lower),
        "k_upper": dist(k_upper),
        "k_upper_family": search.family,
        "k_upper_residual": raw(search.residual),
        "k_upper_reason": search.reason,
        "closed_form": dist(closed) if closed is not None else None,
        "gap": raw(report.gap),
        "sandwich_ok": report.sandwich_ok,
    }
    human = [f"{name}: m_scale {d.m_scale!r}, p_scale {d.p_scale!r}"
             for name, d in (("p_e", report.p_e), ("c_lower", report.c_lower))]
    human += [f"k_upper: m_scale {k_upper.m_scale!r} (family {search.family})",
              f"gap: m_scale {report.gap!r}"]
    if closed is not None:
        human.append(f"closed_form: m_scale {closed.m_scale!r}")
    human.append(f"sandwich_ok: {report.sandwich_ok}")
    env = envelope("distance",
                   {"w": [cnum(c) for c in w], "z": [cnum(c) for c in z]},
                   results,
                   {"tolerance": DEFAULT_BOUNDARY_TOL, "version": __version__})
    emit(env, args.json, human)
    return EXIT_VERIFICATION if report.sandwich_ok is False else EXIT_OK


#: the disc options of each domain, with their defaults; --C belongs to both
_DISC_OPTIONS = {"tetrablock": {"C": 0.0, "phi": "id", "psi": None, "omega1": "1",
                                "omega2": "1"},
                 "g2": {"C": 1.0, "omega": "1"}}


def _disc(args):
    """The disc of ``geodesic eval`` and ``verify``, its left inverse (None
    for a general disc) and their ``inputs`` record, from the disc options;
    an option of the other domain alone is a usage error."""
    own = _DISC_OPTIONS[args.domain]
    foreign = [f"--{name}" for domain, names in _DISC_OPTIONS.items() if domain != args.domain
               for name in names if name not in own and getattr(args, name) is not None]
    if foreign:
        raise _UsageExit(f"--domain {args.domain} does not read {' '.join(foreign)}")
    opt = {name: default if getattr(args, name) is None else getattr(args, name)
           for name, default in own.items()}
    C = opt["C"]
    if args.domain == "g2":
        params = G2GeodesicParams(C, parse_complex(opt["omega"]))
        return (g2_geodesic_disc(params), G2FMap(params.omega),
                {"domain": "g2", "C": C, "omega": cnum(params.omega)})
    phi = parse_phi(opt["phi"])
    omega1, omega2 = parse_complex(opt["omega1"]), parse_complex(opt["omega2"])
    inputs = {"domain": "tetrablock", "C": C, "phi": opt["phi"], "psi": opt["psi"]}
    if opt["psi"] is not None:
        params = GeneralDiscParams(C, omega1, omega2, phi, parse_phi(opt["psi"]))
        return general_disc(params), None, inputs
    params = OriginGeodesicParams(C, omega1, omega2, phi)
    return origin_geodesic_disc(params), certified_left_inverse(params), inputs


def cmd_geodesic_eval(args) -> int:
    lam = parse_complex(args.lam)
    disc, _, inputs = _disc(args)
    point = disc(require_disc_point(lam, name="lam"))
    env = envelope("geodesic-eval", {**inputs, "lambda": cnum(lam)},
                   {"point": [cnum(c) for c in point]}, {"version": __version__})
    emit(env, args.json, [f"f(lambda) = ({', '.join(repr(c) for c in point)})"])
    return EXIT_OK


def cmd_geodesic_verify(args) -> int:
    disc, left_inverse, inputs = _disc(args)
    report = verify_disc(disc, left_inverse, n_angles=args.samples)
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


def cmd_geodesic_solve(args) -> int:
    z = TetraPoint(*parse_point(args.point, 3))
    lam0 = parse_complex(args.lambda0)
    inputs = {"point": [cnum(c) for c in z], "lambda0": cnum(lam0)}
    solution = solve_origin_geodesic_through(z, lam0)
    if solution is None:
        emit(envelope("geodesic-solve", inputs, {"found": False}, {"version": __version__}),
             args.json, ["not found"])
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
                "constant_offset": cnum(phi.unimodular_factor) if phi.is_constant else None},
        "swapped": solution.swapped,
        "residual": raw(solution.residual),
        "lempert_m": raw(abs(solution.lam0)),
    }
    human = [f"C = {solution.params.C!r}",
             f"omega1 = {solution.params.omega1!r}",
             f"omega2 = {solution.params.omega2!r}",
             f"phi degree = {phi.degree}, swapped = {solution.swapped}",
             f"residual (raw) = {solution.residual!r}"]
    emit(envelope("geodesic-solve", inputs, results, {"version": __version__}),
         args.json, human)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(ALL_SUITES) if args.suite is None or "all" in args.suite else args.suite
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
    """A sweep cell, a bool or a float, as csv text."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(value, ".17g")


def _write_sweep(args, rows: List[Dict[str, object]], columns: List[str]) -> int:
    """Write a sweep's rows to ``--out`` in ``--format`` and report them."""
    with open(args.out, "w", newline="") as handle:
        if args.format == "csv":
            writer = csv.writer(handle, quoting=csv.QUOTE_MINIMAL)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_format_cell(row[c]) for c in columns])
        else:
            for row in rows:
                handle.write(json.dumps({c: row[c] for c in columns},
                                        sort_keys=True) + "\n")
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_sweep_separation(args) -> int:
    span = (args.c_max - args.c_min) / args.c_step
    n_steps = int(round(span)) + 1 if math.isfinite(span) else math.inf
    if n_steps > MAX_SWEEP_ROWS:
        raise _UsageExit(f"--c-step too small: at most {MAX_SWEEP_ROWS} rows")
    grid = [C for C in (args.c_min + k * args.c_step for k in range(max(n_steps, 0)))
            if 0.0 < C < 1.0 and C <= args.c_max + 1e-12]
    if not grid:
        raise _UsageExit(f"no C from --c-min {args.c_min} to --c-max {args.c_max} "
                         "lies in (0, 1): the sweep would write no rows")
    rows: List[Dict[str, object]] = []
    for C in grid:
        # magic_f o sigma vanishes at both points: the family is magic_f
        report = pair_report((0.0, 0.0, -C), (0.0, args.lam * (1.0 - C), -C),
                             search=False)
        rows.append({"C": C, "c_lower_m": report.c_lower.m_scale, "lam_modulus": args.lam,
                     "magic_lower_m": report.lower.magic_f,
                     "p_e_m": report.p_e.m_scale, "separated": report.separated})
    return _write_sweep(args, rows, ["C", "c_lower_m", "lam_modulus", "magic_lower_m",
                                    "p_e_m", "separated"])


def cmd_sweep_lempert(args) -> int:
    if args.grid_n ** 2 > MAX_SWEEP_ROWS:
        raise _UsageExit(f"--grid-n too large: at most {MAX_SWEEP_ROWS} rows")
    rows = [{"closed_form_m": closed, "k_upper_m": k_upper,
             "equal_within_tol": abs(k_upper - closed) < LEMPERT_TOL,
             "w_im": w.imag, "w_re": w.real, "z_im": z.imag, "z_re": z.real}
            for z, w, closed, k_upper in lempert_rows(args.grid_n)]
    return _write_sweep(args, rows, ["closed_form_m", "equal_within_tol", "k_upper_m",
                                    "w_im", "w_re", "z_im", "z_re"])


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> Parser:
    """One leaf parser per command and action, holding exactly the options
    its ``cmd_*`` function reads."""
    parser = Parser(prog="tetrablock",
                    description="Invariant distances and complex geodesics on "
                                "the tetrablock and the symmetrized bidisc.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Parser)
    json_opt = Parser(add_help=False)
    json_opt.add_argument("--json", action="store_true")

    p_member = sub.add_parser("member", help="membership classification")
    domains = p_member.add_subparsers(dest="domain", required=True)
    for domain, n, example in (("tetrablock", 3, "0 0.3+0.1i 0.5"), ("g2", 2, "0.5 0.06")):
        leaf = domains.add_parser(domain, parents=[json_opt])
        leaf.add_argument("components", nargs=n,
                          help=f"{n} complex components, e.g. {example}")
        leaf.add_argument("--tol", type=_finite_positive, default=DEFAULT_BOUNDARY_TOL)
        leaf.set_defaults(func=cmd_member)

    p_dist = sub.add_parser("distance", parents=[json_opt],
                            help="invariant-distance report for a pair")
    p_dist.add_argument("w", help="comma-separated triple, e.g. 0,0,-0.5")
    p_dist.add_argument("z")
    p_dist.set_defaults(func=cmd_distance)

    p_geo = sub.add_parser("geodesic", help="evaluate / verify / solve discs")
    actions = p_geo.add_subparsers(dest="action", required=True)
    disc = Parser(add_help=False)
    disc.add_argument("--domain", choices=["tetrablock", "g2"], default="tetrablock")
    disc.add_argument("--C", type=_finite)
    disc.add_argument("--phi", help="id | const:c | auto:a[,w] | blaschke:w|s|z1;z2")
    disc.add_argument("--psi", help="optional second self-map (general disc family)")
    disc.add_argument("--omega1")
    disc.add_argument("--omega2")
    disc.add_argument("--omega", help="g2 family parameter")
    p_eval = actions.add_parser("eval", parents=[disc, json_opt])
    p_eval.add_argument("--lambda", dest="lam", default="0", help="disc parameter")
    p_eval.set_defaults(func=cmd_geodesic_eval)
    p_check = actions.add_parser("verify", parents=[disc, json_opt])
    p_check.add_argument("--samples", type=_samples, default=16,
                         help="angles per radius in verification sweeps")
    p_check.set_defaults(func=cmd_geodesic_verify)
    p_solve = actions.add_parser("solve", parents=[json_opt])
    p_solve.add_argument("--point", required=True, help="target z1,z2,z3")
    p_solve.add_argument("--lambda0", required=True, help="preimage of --point")
    p_solve.set_defaults(func=cmd_geodesic_solve)

    p_verify = sub.add_parser("verify", parents=[json_opt], help="run verification suites")
    p_verify.add_argument("--suite", action="append",
                          choices=sorted(ALL_SUITES) + ["all"], default=None)
    p_verify.add_argument("--seed", type=_non_negative, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="write a CSV/JSONL grid sweep")
    quantities = p_sweep.add_subparsers(dest="quantity", required=True)
    out = Parser(add_help=False)
    out.add_argument("--out", required=True)
    out.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p_sep = quantities.add_parser("separation", parents=[out])
    p_sep.add_argument("--c-min", type=_finite, default=0.05)
    p_sep.add_argument("--c-max", type=_finite, default=0.95)
    p_sep.add_argument("--c-step", type=_finite_positive, default=0.05)
    p_sep.add_argument("--lam", type=_finite, default=0.1)
    p_sep.set_defaults(func=cmd_sweep_separation)
    p_lempert = quantities.add_parser("lempert", parents=[out])
    p_lempert.add_argument("--grid-n", type=_positive, default=10)
    p_lempert.set_defaults(func=cmd_sweep_lempert)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
