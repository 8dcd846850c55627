"""Numerical verification campaigns.

Each suite exercises one identity of the underlying function theory at desk
scale with explicit tolerances and returns a ``SuiteResult``; the CLI
``verify`` command and the acceptance tests both run these.  All randomness
flows through a seed, so a fixed seed reproduces every number bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .domains import (DEFAULT_BOUNDARY_TOL, TetraPoint, e_value_raw, g2_roots,
                      psi_sup, rho_functional)
from .extremals import G2FMap, caratheodory_lower_bound, p_e
from .geodesics import (G2GeodesicParams, GeneralDiscParams,
                        OriginGeodesicParams, TransportClass, boundary_disc,
                        certified_left_inverse, disc_search_upper_bound,
                        g2_geodesic_disc, g2_violation_witness, general_disc,
                        origin_geodesic_disc, sample_grid, transport_disc,
                        transported_extremal_disc)
from .hyperbolic import BlaschkeMap, mobius_m
from .necessary import (G2_ACTION, TETRABLOCK_ACTIONS, fit_general_quadratic,
                        fit_grid, geodesic_necessary_check, psi_of_lambda)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    details: Dict[str, object]

    def summary(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        return f"{self.name}: {parts}"


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def random_unimodular(rng: np.random.Generator) -> complex:
    return cmath.exp(2j * math.pi * rng.uniform())


def random_disc_point(rng: np.random.Generator, radius: float = 0.9) -> complex:
    return radius * math.sqrt(rng.uniform()) * random_unimodular(rng)


def random_disc_points(rng: np.random.Generator, n: int, radius: float = 0.9) -> np.ndarray:
    return (radius * np.sqrt(rng.uniform(size=n))
            * np.exp(2j * math.pi * rng.uniform(size=n)))


def random_self_map(rng: np.random.Generator, max_degree: int = 2) -> BlaschkeMap:
    """A random finite Blaschke map into the open disc."""
    kind = rng.integers(0, max_degree + 1)
    if kind == 0:
        return BlaschkeMap.constant(random_disc_point(rng, 0.85))
    zeros = tuple(random_disc_point(rng, 0.9) for _ in range(int(kind)))
    scale = 1.0 if rng.uniform() < 0.5 else rng.uniform(0.3, 1.0)
    return BlaschkeMap(random_unimodular(rng), zeros, scale)


def random_phi_pinned(rng: np.random.Generator, C: float, kind: str) -> BlaschkeMap:
    """A random self-map of the closed disc with value -C at the origin.

    ``kind``: "constant", "automorphism", "scaled" (degree 1, scale < 1) or
    "degree2".
    """
    if kind == "constant":
        return BlaschkeMap.constant(-C)
    zeta = random_unimodular(rng)
    if kind == "automorphism":
        return BlaschkeMap(zeta, (C * zeta.conjugate(),), 1.0)
    if kind == "scaled":
        s = rng.uniform(C + 0.02 * (1.0 - C) + 1e-6, 1.0) if C < 1.0 else 1.0
        return BlaschkeMap(zeta, ((C / s) * zeta.conjugate(),), s)
    if kind == "degree2":
        if C == 0.0:
            return BlaschkeMap(zeta, (0.0, random_disc_point(rng, 0.9)),
                               rng.uniform(0.5, 1.0))
        # split C = s * r1 * r2 with every factor strictly inside its range
        s = rng.uniform(C + 0.3 * (1.0 - C), 1.0)
        g = C / s
        r1 = rng.uniform(g + 0.02 * (1.0 - g), g + 0.5 * (1.0 - g))
        r2 = g / r1
        beta = 2.0 * math.pi * rng.uniform()
        gamma = 2.0 * math.pi * rng.uniform()
        factor = -cmath.exp(-1j * (beta + gamma))
        return BlaschkeMap(factor, (r1 * cmath.exp(1j * beta), r2 * cmath.exp(1j * gamma)), s)
    raise ValueError(f"unknown kind {kind!r}")


def sample_origin_params(rng: np.random.Generator, n: int) -> List[OriginGeodesicParams]:
    """Random origin-geodesic parameters mixing all phi shapes, plus the
    degenerate C = 1 edge case."""
    kinds = ("constant", "automorphism", "scaled", "degree2")
    out = []
    for k in range(n - 1):
        C = rng.uniform(0.0, 0.95)
        phi = random_phi_pinned(rng, C, kinds[k % len(kinds)])
        out.append(OriginGeodesicParams(C, random_unimodular(rng),
                                        random_unimodular(rng), phi))
    out.append(OriginGeodesicParams(1.0, random_unimodular(rng),
                                    random_unimodular(rng), BlaschkeMap.constant(-1.0)))
    return out


def random_interior_points(rng: np.random.Generator, n: int) -> List[TetraPoint]:
    """Rejection-sample interior points from the scaled complex cube."""
    out: List[TetraPoint] = []
    while len(out) < n:
        batch = max(64, 4 * (n - len(out)))
        coords = (rng.uniform(-1.0, 1.0, size=(3, batch))
                  + 1j * rng.uniform(-1.0, 1.0, size=(3, batch))) / math.sqrt(2.0)
        e = e_value_raw(coords[0], coords[1], coords[2])
        for idx in np.nonzero(e < 1.0 - 1e-9)[0]:
            out.append(TetraPoint(coords[0][idx], coords[1][idx], coords[2][idx]))
            if len(out) == n:
                break
    return out


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_boundary(seed: int = 0, n_discs: int = 1000, n_lams: int = 100) -> SuiteResult:
    """Boundary discs: the defining functional equals 1 identically."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_discs):
        C = rng.uniform(0.0, 1.0)
        phi = random_self_map(rng)
        om1, om2 = random_unimodular(rng), random_unimodular(rng)
        lams = random_disc_points(rng, n_lams, 0.95)
        e = e_value_raw(*boundary_disc(C, om1, om2, phi)(lams))
        worst = max(worst, float(np.max(np.abs(e - 1.0))))
    passed = worst < 1e-12
    return SuiteResult("boundary", passed,
                       {"discs": n_discs, "samples_per_disc": n_lams,
                        "worst_deviation": worst, "tolerance": 1e-12})


def suite_inclusion(seed: int = 0, n_discs: int = 1000, n_lams: int = 100) -> SuiteResult:
    """General discs stay strictly inside the domain."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    violations = 0
    for _ in range(n_discs):
        params = GeneralDiscParams(rng.uniform(0.0, 0.99),
                                   random_unimodular(rng), random_unimodular(rng),
                                   random_self_map(rng), random_self_map(rng))
        lams = random_disc_points(rng, n_lams, 0.9)
        e = e_value_raw(*general_disc(params)(lams))
        worst = max(worst, float(np.max(e)))
        violations += int(np.count_nonzero(e >= 1.0))
    passed = violations == 0
    return SuiteResult("inclusion", passed,
                       {"discs": n_discs, "samples_per_disc": n_lams,
                        "violations": violations, "worst_e_value": worst,
                        "margin": 1.0 - worst})


def suite_certificate(seed: int = 0, n_params: int = 200) -> SuiteResult:
    """Origin geodesics: left-inverse identity and Schwarz-lemma equality.

    The certified left inverse recovers the disc parameter to 1e-10, and the
    Mobius distance of the certified values from 0 equals |lam| to 1e-12,
    i.e. upper and lower invariant bounds coincide at origin pairs.
    """
    rng = np.random.default_rng(seed)
    worst_res = 0.0
    worst_eq = 0.0
    lams = sample_grid()
    for params in sample_origin_params(rng, n_params):
        values = certified_left_inverse(params)(origin_geodesic_disc(params)(lams))
        worst_res = max(worst_res, float(np.max(np.abs(values - lams))))
        worst_eq = max(worst_eq, float(np.max(np.abs(mobius_m(0.0, values) - np.abs(lams)))))
    passed = worst_res < 1e-10 and worst_eq < 1e-12
    return SuiteResult("certificate", passed,
                       {"params": n_params, "worst_left_inverse_residual": worst_res,
                        "worst_schwarz_equality": worst_eq,
                        "tolerances": "1e-10 / 1e-12"})


def lempert_grid(n_side: int) -> Iterator[Tuple[complex, complex]]:
    """The (z, w) of the axis pairs ((0, 0, w), (0, z, w)) on an n_side x
    n_side grid, z varying slowest, that satisfy |z| + |w| < 0.95."""
    step = max(n_side - 1, 1)
    for k in range(n_side):
        z = (0.05 + 0.5 * k / step) * cmath.exp(2j * math.pi * k / n_side)
        for j in range(n_side):
            w = (0.04 + 0.35 * j / step) * cmath.exp(-2j * math.pi * j / n_side)
            if abs(z) + abs(w) < 0.95:
                yield z, w


def suite_lempert(n_side: int = 10) -> SuiteResult:
    """Closed-form Lempert values vs the interpolating-disc search.

    On pairs ((0,0,w), (0,z,w)) the search must reproduce |z|/(1-|w|) within
    [-1e-6, +1e-9], and the transported extremal with constant phi hits both
    points exactly.
    """
    worst_high = -math.inf
    worst_low = math.inf
    worst_extremal = 0.0
    pairs = 0
    not_found = 0
    for z, w in lempert_grid(n_side):
        pairs += 1
        closed = abs(z) / (1.0 - abs(w))
        result = disc_search_upper_bound(TetraPoint(0, 0, w), TetraPoint(0, z, w))
        if not result.found:
            not_found += 1
            continue
        gap = result.bound.m_scale - closed
        worst_high = max(worst_high, gap)
        worst_low = min(worst_low, gap)
        C = abs(w)
        omega1 = -w / C
        disc = transported_extremal_disc(C, omega1, 1.0, BlaschkeMap.constant(-C))
        lam2 = z / (1.0 - C)
        p0 = disc(0.0)
        p2 = disc(lam2)
        dev = max(abs(p0.z1), abs(p0.z2), abs(p0.z3 - w),
                  abs(p2.z1), abs(p2.z2 - z), abs(p2.z3 - w),
                  abs(mobius_m(0.0, lam2) - closed))
        worst_extremal = max(worst_extremal, dev)
    passed = (not_found == 0 and worst_high <= 1e-9 and worst_low >= -1e-6
              and worst_extremal < 1e-12)
    return SuiteResult("lempert", passed,
                       {"pairs": pairs, "search_failures": not_found,
                        "worst_above_closed_form": worst_high,
                        "worst_below_closed_form": worst_low,
                        "worst_extremal_deviation": worst_extremal})


def suite_separation() -> SuiteResult:
    """The Psi-family supremum is strictly below the full lower bound at the
    reference pair, separating the two invariants."""
    w = TetraPoint(0.0, 0.0, -0.5)
    z = TetraPoint(0.0, 0.05, -0.5)
    p_val = p_e(w, z).m_scale
    c_val = caratheodory_lower_bound(w, z).m_scale
    expected_p = 0.1 / 1.45
    expected_c = 0.1 * math.sqrt(0.5)
    passed = (abs(p_val - expected_p) < 1e-6 and abs(c_val - expected_c) < 1e-6
              and c_val > p_val)
    return SuiteResult("separation", passed,
                       {"p_e_m": p_val, "c_lower_m": c_val,
                        "expected_p_e": expected_p, "expected_c_lower": expected_c,
                        "separated": c_val > p_val})


def suite_necessary(seed: int = 0, n_params: int = 200) -> SuiteResult:
    """Quadratic necessary condition on every certified geodesic family."""
    rng = np.random.default_rng(seed)
    worst_fit = 0.0
    worst_origin_psi0 = 0.0
    failures = 0
    for params in sample_origin_params(rng, n_params):
        f = origin_geodesic_disc(params)
        F = certified_left_inverse(params)
        for action in TETRABLOCK_ACTIONS:
            report = geodesic_necessary_check(F, f, action, tol=1e-7)
            worst_fit = max(worst_fit, report.fit.residual)
            # the rotation field vanishes at the fixed origin, so psi(0) = 0
            worst_origin_psi0 = max(worst_origin_psi0, abs(report.fit.psi0))
            if report.verdict.value != "pass":
                failures += 1
    worst_a = 0.0
    worst_im_c = 0.0
    worst_c_match = 0.0
    c_grid = [1.0 + 0.05 * k for k in range(21)]
    for C in c_grid:
        params = G2GeodesicParams(C, random_unimodular(rng))
        f = g2_geodesic_disc(params)
        F = G2FMap(params.omega)
        report = geodesic_necessary_check(F, f, G2_ACTION, tol=1e-7)
        worst_fit = max(worst_fit, report.fit.residual)
        if report.verdict.value != "pass":
            failures += 1
        worst_a = max(worst_a, abs(report.fit.circular_a))
        worst_c_match = max(worst_c_match, abs(report.fit.C - C))
        # unconstrained cross-fit of the weighted sum itself
        lams = fit_grid()
        samples = np.column_stack([lams, -1j * psi_of_lambda(F, f, G2_ACTION, lams)])
        c0, c1, _, _ = fit_general_quadratic(samples)
        worst_a = max(worst_a, abs(c0))
        worst_im_c = max(worst_im_c, abs(c1.imag))
    passed = (failures == 0 and worst_fit < 1e-7 and worst_a < 1e-9
              and worst_im_c < 1e-9 and worst_c_match < 1e-9
              and worst_origin_psi0 < 1e-9)
    return SuiteResult("necessary", passed,
                       {"origin_params": n_params, "g2_grid": len(c_grid),
                        "failures": failures, "worst_fit_residual": worst_fit,
                        "worst_origin_psi0": worst_origin_psi0,
                        "worst_constant_coeff": worst_a,
                        "worst_imag_linear_coeff": worst_im_c,
                        "worst_c_mismatch": worst_c_match})


def suite_g2_window(seed: int = 0) -> SuiteResult:
    """Parameter window of the two-coordinate family: inside [1, 2] the disc
    is an in-domain geodesic; just outside it leaves the domain."""
    rng = np.random.default_rng(seed)
    omegas = [cmath.exp(2j * math.pi * k / 8.0) for k in range(8)]
    worst_res = 0.0
    worst_root = 0.0
    in_window_failures = 0
    lams = sample_grid()
    for k in range(21):
        C = 1.0 + 0.05 * k
        for omega in omegas:
            point = g2_geodesic_disc(G2GeodesicParams(C, omega))(lams)
            roots = np.abs(g2_roots(point)[0])
            worst_root = max(worst_root, float(np.max(roots)))
            in_window_failures += int(np.count_nonzero(~(roots < 1.0 - DEFAULT_BOUNDARY_TOL)))
            residual = np.max(np.abs(G2FMap(omega)(point) - lams))
            worst_res = max(worst_res, float(residual))
    witnesses = {}
    for C in (0.9, 2.1, 2.5):
        witness = g2_violation_witness(C, random_unimodular(rng))
        witnesses[str(C)] = witness is not None
    passed = (in_window_failures == 0 and worst_res < 1e-10 and all(witnesses.values()))
    return SuiteResult("g2-window", passed,
                       {"grid_points": 21 * 8, "in_window_failures": in_window_failures,
                        "worst_left_inverse_residual": worst_res,
                        "worst_root_modulus": worst_root,
                        "witnesses_found": witnesses})


def suite_membership(seed: int = 0, n_points: int = 10000) -> SuiteResult:
    """Sign agreement of the defining functional and the exact Psi supremum."""
    rng = np.random.default_rng(seed)
    coords = (rng.uniform(-1.0, 1.0, size=(3, n_points))
              + 1j * rng.uniform(-1.0, 1.0, size=(3, n_points))) / math.sqrt(2.0)
    e_vals = e_value_raw(coords[0], coords[1], coords[2])
    sup_vals = psi_sup(TetraPoint(*coords))
    decided = np.abs(e_vals - 1.0) > 1e-6
    disagreements = int(np.count_nonzero(
        np.sign(sup_vals[decided] - 1.0) != np.sign(e_vals[decided] - 1.0)))
    passed = disagreements == 0
    return SuiteResult("membership", passed,
                       {"points": n_points, "decided": int(np.count_nonzero(decided)),
                        "disagreements": disagreements,
                        "interior_fraction": float(np.mean(e_vals < 1.0))})


def suite_rho(seed: int = 0, n_pairs: int = 100) -> SuiteResult:
    """Quasi-homogeneity of the gauge under the weighted scaling."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_pairs):
        z = TetraPoint(0.7 * random_disc_point(rng), 0.7 * random_disc_point(rng),
                       0.7 * random_disc_point(rng))
        lam = rng.uniform(0.05, 1.0)
        scaled = TetraPoint(lam * z.z1, lam * z.z2, lam * lam * z.z3)
        worst = max(worst, abs(rho_functional(scaled) - lam * rho_functional(z)))
    # the gauge repeats to a few ulps (1.3e-15 at worst over seeds 0-999)
    tolerance = 1e-13
    return SuiteResult("rho", worst < tolerance,
                       {"pairs": n_pairs, "worst_deviation": worst, "tolerance": tolerance})


def suite_transport(seed: int = 0, n_discs: int = 200) -> SuiteResult:
    """Transport dichotomy: automorphism phi sends the transported disc to
    the boundary, a scale-0.9 phi keeps it interior; never mixed."""
    rng = np.random.default_rng(seed)
    counts = {"boundary": 0, "interior": 0, "mixed": 0}
    misclassified = 0
    for k in range(n_discs):
        automorphic = k < n_discs // 2
        if automorphic:
            C = rng.uniform(0.0, 0.9)
            phi = random_phi_pinned(rng, C, "automorphism")
        else:
            C = rng.uniform(0.0, 0.85)
            zeta = random_unimodular(rng)
            phi = BlaschkeMap(zeta, ((C / 0.9) * zeta.conjugate(),), 0.9)
        params = OriginGeodesicParams(C, random_unimodular(rng),
                                      random_unimodular(rng), phi)
        verdict = transport_disc(origin_geodesic_disc(params)).classify(n_angles=112)
        counts[verdict.value] += 1
        expected = TransportClass.BOUNDARY if automorphic else TransportClass.INTERIOR
        if verdict is not expected:
            misclassified += 1
    passed = misclassified == 0 and counts["mixed"] == 0
    return SuiteResult("transport", passed,
                       {"discs": n_discs, "misclassified": misclassified, **counts})


ALL_SUITES: Dict[str, Callable[..., SuiteResult]] = {
    "boundary": suite_boundary,
    "inclusion": suite_inclusion,
    "certificate": suite_certificate,
    "lempert": suite_lempert,
    "separation": suite_separation,
    "necessary": suite_necessary,
    "g2-window": suite_g2_window,
    "membership": suite_membership,
    "rho": suite_rho,
    "transport": suite_transport,
}

_SEEDED = {"boundary", "inclusion", "certificate", "necessary", "g2-window",
           "membership", "rho", "transport"}


def run_suites(names: Sequence[str], seed: int = 0) -> List[SuiteResult]:
    results = []
    for name in names:
        fn = ALL_SUITES.get(name)
        if fn is None:
            raise KeyError(f"unknown suite {name!r}; known: {sorted(ALL_SUITES)}")
        results.append(fn(seed=seed) if name in _SEEDED else fn())
    return results
