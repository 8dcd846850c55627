"""Numerical verification campaigns.

Each suite exercises one identity of the underlying function theory at desk
scale, at one size fixed in its body, with explicit tolerances and returns a
``SuiteResult``; the CLI
``verify`` command and the acceptance tests both run these.  All randomness
flows through a seed, so a fixed seed reproduces every number bit for bit.
"""

from __future__ import annotations

import cmath
import inspect
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .domains import (DEFAULT_BOUNDARY_TOL, TetraPoint, e_value_raw, g2_roots,
                      psi_sup, rho_functional)
from .errors import DomainError
from .extremals import G2FMap
from .geodesics import (G2GeodesicParams, GeneralDiscParams,
                        OriginGeodesicParams, TransportClass, boundary_disc,
                        certified_left_inverse, disc_search_upper_bound,
                        g2_geodesic_disc, g2_violation_witness, general_disc,
                        lempert_special, origin_geodesic_disc, pair_report,
                        sample_grid, transport_disc)
from .hyperbolic import BlaschkeMap, largest, mobius_m
from .necessary import (G2_ACTION, TETRABLOCK_ACTIONS, CheckVerdict,
                        fit_general_quadratics, geodesic_necessary_checks)


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
#
# The suites draw their parameters in a few array draws and evaluate stacks
# of discs in blocks: maps of different degrees go into separate stacks, and
# each stack is cut into blocks of at most ``_BLOCK_POINTS`` sample points
# (``key_blocks``).  Every figure is a maximum or a count over entries that
# are computed row by row, so the cut changes no result, only how much of
# each temporary array stays in cache.  ``random_self_map`` and
# ``sample_origin_params`` give the members of such stacks one by one, as
# scalar maps and records.

#: the most sample points one array call of a suite evaluates.  A block of
#: 2**14 complex points keeps each temporary array at 256 KiB, inside a
#: core's L2 cache, where a whole stack of 10**5 points is bound by memory
#: traffic.  It is a constant, not an option: no result depends on it, and
#: the suite times were flat from 2**13 to 2**14 and rose on either side.
_BLOCK_POINTS = 2 ** 14


def random_unimodular(rng: np.random.Generator, size=None):
    """A uniform point of the unit circle, or an array of them of shape
    ``size``."""
    angle = 2j * math.pi * rng.uniform(size=size)
    return cmath.exp(angle) if size is None else np.exp(angle)


def random_disc_point(rng: np.random.Generator, radius: float = 0.9) -> complex:
    """A uniform point of the disc of the given radius: a draw of one from
    ``random_disc_points``."""
    return complex(random_disc_points(rng, 1, radius)[0])


def random_disc_points(rng: np.random.Generator, n, radius: float = 0.9) -> np.ndarray:
    """Uniform points of the disc of the given radius, an array of shape
    ``n`` (an int or a tuple).

    Points x + iy with (x, y) uniform on [-1, 1)^2 are kept where their
    modulus, as ``require_disc_point`` takes it, is below 1, in draw order,
    and the batches are topped up until n are kept; then they are scaled by
    the radius.  No trigonometric call is made, and how many uniforms a
    draw consumes depends on the stream, not only on n.

    Each batch is drawn in chunks of at most ``_BLOCK_POINTS`` pairs whose
    kept points go straight into the output, so no temporary outgrows a
    chunk.  The chunks take the batch's uniforms in the same order, the
    unused tail of the last batch included, so the points and the
    generator's state after the draw are those of one array per batch, bit
    for bit."""
    shape = (n,) if isinstance(n, (int, np.integer)) else tuple(n)
    if min(shape, default=0) < 0:
        raise ValueError(f"negative dimensions are not allowed, got {shape}")
    size = math.prod(shape)
    points = np.empty(size, dtype=complex)
    kept = 0
    while kept < size:
        # 4/3 candidates per missing point against an acceptance of pi/4,
        # so a top-up is rare
        batch = (4 * (size - kept)) // 3 + 16
        for start in range(0, batch, _BLOCK_POINTS):
            pairs = rng.uniform(-1.0, 1.0, size=(min(_BLOCK_POINTS, batch - start), 2))
            candidates = pairs.view(complex).ravel()
            inside = candidates[np.abs(candidates) < 1.0][:size - kept]
            points[kept:kept + inside.size] = inside
            kept += inside.size
    points *= radius
    return points.reshape(shape)


@dataclass(frozen=True)
class SelfMapDraws:
    """The parameters of n random self-maps of the open disc, entry by
    entry: the degree (0 for a constant map), the constant, the zeros (one
    row per possible zero), the scale and the unimodular factor."""

    degree: np.ndarray
    constant: np.ndarray
    zeros: np.ndarray
    scale: np.ndarray
    factor: np.ndarray

    def stack(self, idx: np.ndarray) -> BlaschkeMap:
        """The maps at ``idx``, which share one degree, as one stacked map
        with fields of shape (len(idx), 1)."""
        degree = int(self.degree[idx[0]])
        if degree == 0:
            return BlaschkeMap.constant(self.constant[idx, None])
        return BlaschkeMap(self.factor[idx, None],
                           tuple(row[idx, None] for row in self.zeros[:degree]),
                           self.scale[idx, None])


#: the largest degree of a random self-map
_MAX_SELF_MAP_DEGREE = 2


def random_self_maps(rng: np.random.Generator, n: int) -> SelfMapDraws:
    """n random finite Blaschke maps into the open disc: the degree is
    uniform on 0..2, a constant lies in the 0.85 disc, zeros in the 0.9
    disc, and the scale is 1 with probability 1/2, else U(0.3, 1)."""
    degree = rng.integers(0, _MAX_SELF_MAP_DEGREE + 1, size=n)
    constant = random_disc_points(rng, n, 0.85)
    zeros = random_disc_points(rng, (_MAX_SELF_MAP_DEGREE, n), 0.9)
    scale = np.where(rng.uniform(size=n) < 0.5, 1.0, rng.uniform(0.3, 1.0, size=n))
    return SelfMapDraws(degree, constant, zeros, scale, random_unimodular(rng, n))


def random_self_map(rng: np.random.Generator) -> BlaschkeMap:
    """A random finite Blaschke map into the open disc."""
    return random_self_maps(rng, 1).stack(np.array([0])).split()[0]


def key_groups(keys: np.ndarray) -> Iterator[np.ndarray]:
    """The indices of the entries that share each key, key by key in
    increasing order."""
    for key in np.unique(keys):
        yield np.flatnonzero(keys == key)


def key_blocks(keys: np.ndarray, row_points: int) -> Iterator[np.ndarray]:
    """The indices of ``key_groups``, each group cut in order into blocks of
    as many entries as leave at most ``_BLOCK_POINTS`` sample points, at
    ``row_points`` points per entry (one entry at least)."""
    rows = max(1, _BLOCK_POINTS // max(row_points, 1))
    for idx in key_groups(keys):
        for start in range(0, idx.size, rows):
            yield idx[start:start + rows]


def random_phi_pinned(rng: np.random.Generator, C, kind: str) -> BlaschkeMap:
    """A random self-map of the closed disc with value -C at the origin, or
    a stack of them, one per entry, when C is an (n, 1) array.

    ``kind``: "constant", "automorphism", "scaled" (degree 1, scale < 1) or
    "degree2".  A constant takes C in [0, 1]; the other kinds need C < 1,
    since only the constant -1 has value -1 at the origin, and raise
    DomainError at C = 1.  At C = 0 a degree-2 map has one zero at the
    origin and the other at modulus U(0.02, 0.5).
    """
    if kind == "constant":
        return BlaschkeMap.constant(-C)
    if largest(C) >= 1.0:
        raise DomainError(f"a {kind} phi needs C < 1: C = 1 forces the constant phi = -1")
    size = np.shape(C) or None
    zeta = random_unimodular(rng, size)
    if kind == "automorphism":
        return BlaschkeMap(zeta, (C * np.conjugate(zeta),), 1.0)
    if kind == "scaled":
        # the 1e-6 margin would pass 1 for C within 1.02e-6 of 1
        s = rng.uniform(np.minimum(C + 0.02 * (1.0 - C) + 1e-6, 0.5 * (1.0 + C)), 1.0, size)
        return BlaschkeMap(zeta, ((C / s) * np.conjugate(zeta),), s)
    if kind == "degree2":
        # split C = s * r1 * r2 with every factor strictly inside its range
        s = rng.uniform(C + 0.3 * (1.0 - C), 1.0, size)
        g = C / s
        r1 = rng.uniform(g + 0.02 * (1.0 - g), g + 0.5 * (1.0 - g), size)
        beta = 2.0 * math.pi * rng.uniform(size=size)
        gamma = 2.0 * math.pi * rng.uniform(size=size)
        return BlaschkeMap(-np.exp(-1j * (beta + gamma)),
                           (r1 * np.exp(1j * beta), (g / r1) * np.exp(1j * gamma)), s)
    raise ValueError(f"unknown kind {kind!r}")


PHI_KINDS = ("constant", "automorphism", "scaled", "degree2")


def sample_origin_stacks(rng: np.random.Generator, n: int) -> List[OriginGeodesicParams]:
    """n random origin-geodesic parameter records as one stack per phi kind:
    the kinds cycle through ``PHI_KINDS`` with C ~ U(0, 0.95), and the last
    record is the degenerate C = 1 edge case (a constant phi = -1), which
    is always drawn."""
    kind = np.append(np.arange(max(n - 1, 0)) % len(PHI_KINDS), 0)
    C = np.append(rng.uniform(0.0, 0.95, size=kind.size - 1), 1.0)
    omega1, omega2 = random_unimodular(rng, (2, kind.size))
    stacks = []
    for idx in key_groups(kind):
        c = C[idx, None]
        stacks.append(OriginGeodesicParams(c, omega1[idx, None], omega2[idx, None],
                                           random_phi_pinned(rng, c, PHI_KINDS[kind[idx[0]]])))
    return stacks


def sample_origin_params(rng: np.random.Generator, n: int) -> List[OriginGeodesicParams]:
    """The records of ``sample_origin_stacks`` one by one, kind by kind."""
    return [params for stack in sample_origin_stacks(rng, n) for params in stack.split()]


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


def suite_boundary(seed: int = 0) -> SuiteResult:
    """Boundary discs: the defining functional equals 1 identically."""
    rng = np.random.default_rng(seed)
    n_discs, n_lams = 1000, 100
    C = rng.uniform(0.0, 1.0, size=(n_discs, 1))
    omega1, omega2 = random_unimodular(rng, (2, n_discs, 1))
    phi = random_self_maps(rng, n_discs)
    lams = random_disc_points(rng, (n_discs, n_lams), 0.95)
    worst = 0.0
    for idx in key_blocks(phi.degree, n_lams):
        disc = boundary_disc(C[idx], omega1[idx], omega2[idx], phi.stack(idx))
        e = e_value_raw(*disc(lams[idx]))
        worst = max(worst, float(np.max(np.abs(e - 1.0))))
    return SuiteResult("boundary", worst < 1e-12,
                       {"discs": n_discs, "samples_per_disc": n_lams,
                        "worst_deviation": worst, "tolerance": 1e-12})


def suite_inclusion(seed: int = 0) -> SuiteResult:
    """General discs stay strictly inside the domain."""
    rng = np.random.default_rng(seed)
    n_discs, n_lams = 1000, 100
    C = rng.uniform(0.0, 0.99, size=(n_discs, 1))
    omega1, omega2 = random_unimodular(rng, (2, n_discs, 1))
    phi, psi = random_self_maps(rng, n_discs), random_self_maps(rng, n_discs)
    lams = random_disc_points(rng, (n_discs, n_lams), 0.9)
    worst = 0.0
    violations = 0
    for idx in key_blocks(3 * phi.degree + psi.degree, n_lams):
        params = GeneralDiscParams(C[idx], omega1[idx], omega2[idx],
                                   phi.stack(idx), psi.stack(idx))
        e = e_value_raw(*general_disc(params)(lams[idx]))
        worst = max(worst, float(np.max(e)))
        violations += int(np.count_nonzero(e >= 1.0))
    return SuiteResult("inclusion", violations == 0,
                       {"discs": n_discs, "samples_per_disc": n_lams,
                        "violations": violations, "worst_e_value": worst,
                        "margin": 1.0 - worst})


def suite_certificate(seed: int = 0) -> SuiteResult:
    """Origin geodesics: left-inverse identity and Schwarz-lemma equality.

    The certified left inverse recovers the disc parameter to 1e-10, and the
    Mobius distance of the certified values from 0 equals |lam| to 1e-12,
    i.e. upper and lower invariant bounds coincide at origin pairs.
    """
    rng = np.random.default_rng(seed)
    n_params = 200
    lams = sample_grid()
    values = np.concatenate([certified_left_inverse(params)(origin_geodesic_disc(params)(lams))
                             for params in sample_origin_stacks(rng, n_params)])
    worst_res = float(np.max(np.abs(values - lams)))
    worst_eq = float(np.max(np.abs(mobius_m(0.0, values) - np.abs(lams))))
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


def lempert_rows(n_side: int) -> Iterator[Tuple[complex, complex, float, float]]:
    """(z, w, closed form, k_upper) at each (z, w) of ``lempert_grid``: the
    m-scale ``lempert_special`` value of the axis pair ((0, 0, w), (0, z,
    w)) and the bound of its ``disc_search_upper_bound``, NaN when the
    search finds nothing."""
    for z, w in lempert_grid(n_side):
        search = disc_search_upper_bound(TetraPoint(0, 0, w), TetraPoint(0, z, w))
        yield (z, w, lempert_special(z, w).m_scale,
               search.bound.m_scale if search.found else math.nan)


def _worst_extremal_deviation(pairs: Sequence[Tuple[complex, complex]]) -> float:
    """The largest miss of the transported extremals through the axis pairs
    ((0, 0, w), (0, z, w)), one stacked disc for all (z, w): C = |w|,
    omega1 = -w/C and phi the constant -C, at lam = 0 and z/(1 - C), where
    the Mobius distance of the two parameters must equal |z|/(1 - |w|).
    0 for no pairs."""
    if not pairs:
        return 0.0
    z, w = (np.array(c)[:, None] for c in zip(*pairs))
    C = np.abs(w)
    disc = transport_disc(OriginGeodesicParams(C, -w / C, 1.0, BlaschkeMap.constant(-C)))
    lam2 = z / (1.0 - C)
    p = disc(np.hstack([np.zeros_like(lam2), lam2]))
    misses = (p.z1, p.z2[:, :1], p.z3 - w, p.z2[:, 1:] - z,
              mobius_m(0.0, lam2) - np.abs(z) / (1.0 - C))
    return max(float(np.max(np.abs(m))) for m in misses)


#: how far the search's k_upper may lie from |z|/(1 - |w|) at an axis pair,
#: in the lempert suite and ``sweep lempert``.  The axis route is a closed
#: form, so this is rounding: the largest miss on ``lempert_grid`` at sizes
#: 1 to 316 is 2.2e-16.
LEMPERT_TOL = 1e-14


def suite_lempert() -> SuiteResult:
    """Closed-form Lempert values vs the interpolating-disc search.

    On the pairs ((0,0,w), (0,z,w)) of its grid the search must reproduce
    |z|/(1-|w|) to ``LEMPERT_TOL``, and the transported extremal with
    constant phi hits both points exactly.  The searches run pair by pair;
    the extremals of the pairs they find are checked as one stack.
    """
    worst_high = -math.inf
    worst_low = math.inf
    pairs = 0
    found = []
    for z, w, closed, k_upper in lempert_rows(10):
        pairs += 1
        if not math.isnan(k_upper):
            gap = k_upper - closed
            worst_high = max(worst_high, gap)
            worst_low = min(worst_low, gap)
            found.append((z, w))
    not_found = pairs - len(found)
    worst_extremal = _worst_extremal_deviation(found)
    passed = (not_found == 0 and worst_high <= LEMPERT_TOL and worst_low >= -LEMPERT_TOL
              and worst_extremal < 1e-12)
    return SuiteResult("lempert", passed,
                       {"pairs": pairs, "search_failures": not_found,
                        "worst_above_closed_form": worst_high,
                        "worst_below_closed_form": worst_low,
                        "worst_extremal_deviation": worst_extremal})


def suite_separation() -> SuiteResult:
    """The Psi-family supremum is below the full lower bound at the reference
    pair, by more than the report's separation tolerance, separating the two
    invariants."""
    report = pair_report(TetraPoint(0.0, 0.0, -0.5), TetraPoint(0.0, 0.05, -0.5), search=False)
    p_val, c_val = report.p_e.m_scale, report.c_lower.m_scale
    expected_p, expected_c = 0.1 / 1.45, 0.1 * math.sqrt(0.5)
    passed = (abs(p_val - expected_p) < 1e-6 and abs(c_val - expected_c) < 1e-6
              and report.separated)
    return SuiteResult("separation", passed,
                       {"p_e_m": p_val, "c_lower_m": c_val,
                        "expected_p_e": expected_p, "expected_c_lower": expected_c,
                        "separated": report.separated})


def suite_necessary(seed: int = 0) -> SuiteResult:
    """Quadratic necessary condition on every certified geodesic family.

    Each family is checked as stacks of discs, one stacked check per stack
    for all its rotation actions."""
    rng = np.random.default_rng(seed)
    n_params = 200
    failures = 0
    worst_fit = 0.0
    worst_origin_psi0 = 0.0
    for params in sample_origin_stacks(rng, n_params):
        f, F = origin_geodesic_disc(params), certified_left_inverse(params)
        for report in geodesic_necessary_checks(F, f, TETRABLOCK_ACTIONS):
            failures += int(np.count_nonzero(report.verdict != CheckVerdict.PASS))
            worst_fit = max(worst_fit, float(np.max(report.fit.residual)))
            # the rotation field vanishes at the fixed origin, so psi(0) = 0
            worst_origin_psi0 = max(worst_origin_psi0, float(np.max(np.abs(report.fit.psi0))))
    c_grid = 1.0 + 0.05 * np.arange(21)[:, None]
    params = G2GeodesicParams(c_grid, random_unimodular(rng, c_grid.shape))
    report, = geodesic_necessary_checks(G2FMap(params.omega), g2_geodesic_disc(params),
                                        (G2_ACTION,))
    fit = report.fit
    failures += int(np.count_nonzero(report.verdict != CheckVerdict.PASS))
    worst_fit = max(worst_fit, float(np.max(fit.residual)))
    # the unconstrained cross-fit of the weighted sum the check fitted
    c0, c1, _, _ = fit_general_quadratics(-1j * report.psi)
    worst_a = float(max(np.max(np.abs(fit.circular_a)), np.max(np.abs(c0))))
    worst_im_c = float(np.max(np.abs(c1.imag)))
    worst_c_match = float(np.max(np.abs(fit.C - c_grid)))
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
    # the 21 x 8 grid of (C, omega), C varying slowest
    omegas = [cmath.exp(2j * math.pi * k / 8.0) for k in range(8)]
    C, omega = (np.ravel(x)[:, None] for x in np.meshgrid(
        1.0 + 0.05 * np.arange(21), omegas, indexing="ij"))
    worst_res = 0.0
    worst_root = 0.0
    in_window_failures = 0
    lams = sample_grid()
    for idx in key_blocks(np.zeros(len(C)), lams.size):
        params = G2GeodesicParams(C[idx], omega[idx])
        point = g2_geodesic_disc(params)(lams)
        roots = np.abs(g2_roots(point)[0])
        worst_root = max(worst_root, float(np.max(roots)))
        in_window_failures += int(np.count_nonzero(~(roots < 1.0 - DEFAULT_BOUNDARY_TOL)))
        residual = np.max(np.abs(G2FMap(params.omega)(point) - lams))
        worst_res = max(worst_res, float(residual))
    witnesses = {}
    for c in (0.9, 2.1, 2.5):
        witness = g2_violation_witness(c, random_unimodular(rng))
        witnesses[str(c)] = witness is not None
    passed = (in_window_failures == 0 and worst_res < 1e-10 and all(witnesses.values()))
    return SuiteResult("g2-window", passed,
                       {"grid_points": len(C), "in_window_failures": in_window_failures,
                        "worst_left_inverse_residual": worst_res,
                        "worst_root_modulus": worst_root,
                        "witnesses_found": witnesses})


def suite_membership(seed: int = 0) -> SuiteResult:
    """Sign agreement of the defining functional and the exact Psi supremum."""
    rng = np.random.default_rng(seed)
    n_points = 10000
    coords = (rng.uniform(-1.0, 1.0, size=(3, n_points))
              + 1j * rng.uniform(-1.0, 1.0, size=(3, n_points))) / math.sqrt(2.0)
    e_vals = e_value_raw(coords[0], coords[1], coords[2])
    sup_vals = psi_sup(TetraPoint(*coords))
    decided = np.abs(e_vals - 1.0) > 1e-6
    disagreements = int(np.count_nonzero(
        np.sign(sup_vals[decided] - 1.0) != np.sign(e_vals[decided] - 1.0)))
    interior = np.count_nonzero(e_vals < 1.0) / n_points
    return SuiteResult("membership", disagreements == 0,
                       {"points": n_points, "decided": int(np.count_nonzero(decided)),
                        "disagreements": disagreements, "interior_fraction": interior})


def suite_rho(seed: int = 0) -> SuiteResult:
    """Quasi-homogeneity of the gauge under the weighted scaling."""
    rng = np.random.default_rng(seed)
    n_pairs = 100
    z1, z2, z3 = 0.7 * random_disc_points(rng, (3, n_pairs))
    lam = rng.uniform(0.05, 1.0, n_pairs)
    points = rho_functional(TetraPoint(z1, z2, z3))
    scaled = rho_functional(TetraPoint(lam * z1, lam * z2, lam * lam * z3))
    worst = float(np.max(np.abs(scaled - lam * points)))
    # the gauge repeats to a few ulps (4.4e-16 at worst over seeds 0-999)
    tolerance = 1e-13
    return SuiteResult("rho", worst < tolerance,
                       {"pairs": n_pairs, "worst_deviation": worst, "tolerance": tolerance})


def suite_transport(seed: int = 0) -> SuiteResult:
    """Transport dichotomy: automorphism phi sends the transported disc to
    the boundary, a scale-0.9 phi keeps it interior; never mixed."""
    rng = np.random.default_rng(seed)
    n_discs = 200
    # the first half: phi an automorphism with C in [0, 0.9]; the second:
    # phi of scale 0.9 with C in [0, 0.85]
    automorphic = np.arange(n_discs) < n_discs // 2
    C = rng.uniform(0.0, np.where(automorphic, 0.9, 0.85))[:, None]
    scale = np.where(automorphic, 1.0, 0.9)[:, None]
    zeta = random_unimodular(rng, C.shape)
    zero = (C / scale) * zeta.conjugate()
    omega1, omega2 = random_unimodular(rng, (2,) + C.shape)
    verdict = np.empty(n_discs, dtype=object)
    # blocks are cut to the 9 x 112 points of the grid classify reads
    for idx in key_blocks(automorphic, sample_grid(n_angles=112).size):
        phi = BlaschkeMap(zeta[idx], (zero[idx],), scale[idx])
        params = OriginGeodesicParams(C[idx], omega1[idx], omega2[idx], phi)
        verdict[idx] = transport_disc(params).classify()
    expected = np.where(automorphic, TransportClass.BOUNDARY, TransportClass.INTERIOR)
    counts = {kind.value: int(np.count_nonzero(verdict == kind)) for kind in
              (TransportClass.BOUNDARY, TransportClass.INTERIOR, TransportClass.MIXED)}
    misclassified = int(np.count_nonzero(verdict != expected))
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


def run_suites(names: Sequence[str], seed: int = 0) -> List[SuiteResult]:
    """Run the named suites in order, passing ``seed`` to each one whose
    signature takes it."""
    results = []
    for name in names:
        fn = ALL_SUITES.get(name)
        if fn is None:
            raise KeyError(f"unknown suite {name!r}; known: {sorted(ALL_SUITES)}")
        seeded = "seed" in inspect.signature(fn).parameters
        results.append(fn(seed=seed) if seeded else fn())
    return results
