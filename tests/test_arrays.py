"""The array path against per-sample scalar evaluation.

Each disc family evaluated once on a whole sample grid must equal its scalar
evaluator point by point, and the grid sweeps must give the verdicts and
residuals of the per-lambda loops kept here as the reference.  The circle
search is checked against the golden-section search it replaced, and the
necessary-condition checker against a per-lambda loop with a row-by-row
design matrix.
"""

import cmath
import math

import numpy as np
import pytest

from tetrablock.domains import (TetraPoint, g2_membership, psi_sup,
                                tetra_e_value)
from tetrablock.extremals import G2FMap, caratheodory_lower_bound, p_e, sigma
from tetrablock.geodesics import (DEFAULT_RADII, DiscVerdict, G2GeodesicParams,
                                  GeneralDiscParams, OriginGeodesicParams,
                                  TransportClass, boundary_disc,
                                  certified_left_inverse,
                                  eval_origin_geodesic, g2_geodesic_disc,
                                  general_disc, left_inverse_residual,
                                  origin_geodesic_disc, sample_grid,
                                  transport_disc, verify_disc)
from tetrablock.hyperbolic import BlaschkeMap, mobius_m
from tetrablock.necessary import (ANALYTIC_TOL, G2_ACTION, TETRABLOCK_ACTIONS,
                                  CheckVerdict, fit_grid,
                                  geodesic_necessary_checks, psi_of_lambda)
from tetrablock.verify import (random_interior_points, random_phi_pinned,
                               random_self_map, random_unimodular,
                               sample_origin_params)

from oracles import magic_f

# the default grid plus the centre, where the transported families fill in
# their removable singularity
GRID = sample_grid((0.0,) + DEFAULT_RADII)


def origin_family(rng):
    for params in sample_origin_params(rng, 20):
        yield (origin_geodesic_disc(params),
               lambda lam, p=params: eval_origin_geodesic(p, lam))


def general_family(rng):
    for _ in range(20):
        params = GeneralDiscParams(rng.uniform(0.0, 0.99), random_unimodular(rng),
                                   random_unimodular(rng), random_self_map(rng),
                                   random_self_map(rng))
        disc = general_disc(params)
        yield disc, disc


def boundary_family(rng):
    for _ in range(20):
        # the map at one Python complex lam is the scalar evaluation
        disc = boundary_disc(rng.uniform(0.0, 1.0), random_unimodular(rng),
                             random_unimodular(rng), random_self_map(rng))
        yield disc, disc


def transported_family(rng):
    for k in range(21):
        C = rng.uniform(0.1, 0.8)
        phi = random_phi_pinned(rng, C, ("constant", "scaled", "degree2")[k % 3])
        disc = transport_disc(OriginGeodesicParams(C, random_unimodular(rng),
                                                   random_unimodular(rng), phi))
        yield disc, disc


def g2_family(rng):
    for _ in range(20):
        params = G2GeodesicParams(rng.uniform(1.0, 2.0), random_unimodular(rng))
        disc = g2_geodesic_disc(params)
        yield disc, disc


FAMILIES = {"origin": origin_family, "general": general_family,
            "boundary": boundary_family, "transported-extremal": transported_family,
            "g2-origin": g2_family}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_array_evaluation_matches_scalar(name):
    rng = np.random.default_rng(41)
    for disc, scalar in FAMILIES[name](rng):
        on_grid = tuple(disc(GRID))
        for k, lam in enumerate(GRID):
            # the transported extremal divides origin-disc coordinates by lam,
            # which scales their last-digit differences by 1/|lam|
            tol = 1e-15 / abs(lam) if name == "transported-extremal" and lam else 1e-15
            for array_coord, value in zip(on_grid, scalar(complex(lam))):
                assert abs(array_coord[k] - value) <= tol, (name, lam)


# ---------------------------------------------------------------------------
# per-lambda reference loops
# ---------------------------------------------------------------------------


def loop_residual(f, F, lams):
    return max(abs(complex(F(f(complex(lam)))) - lam) for lam in lams)


def loop_verify(f, F, domain, lams):
    if domain == "tetrablock":
        worst = max(tetra_e_value(f(complex(lam))) for lam in lams)
    else:
        worst = max(g2_membership(f(complex(lam))).max_root_modulus for lam in lams)
    if F is None:
        return worst, None, DiscVerdict.IN_DOMAIN_ONLY if worst < 1.0 else DiscVerdict.FAILED
    residual = loop_residual(f, F, lams)
    verified = worst < 1.0 and residual < 1e-10
    return worst, residual, DiscVerdict.GEODESIC_VERIFIED if verified else DiscVerdict.FAILED


def loop_classify(f, lams, tol=1e-8):
    """The class of the transported disc of f, with its value at 0 as the
    circle mean of f1/lam and f3/lam on 64 points of radius 1e-5."""
    nodes = [1e-5 * cmath.exp(2j * cmath.pi * k / 64) for k in range(64)]
    z1 = sum(f(node).z1 / node for node in nodes) / 64
    z3 = sum(f(node).z3 / node for node in nodes) / 64
    at_zero = TetraPoint(z1, f(0.0).z2, z3)
    values = [tetra_e_value(at_zero)]
    for lam in map(complex, lams):
        p = f(lam)
        values.append(tetra_e_value(TetraPoint(p.z1 / lam, p.z2, p.z3 / lam)))
    if max(abs(v - 1.0) for v in values) <= tol:
        return TransportClass.BOUNDARY, at_zero
    if max(values) < 1.0 - tol:
        return TransportClass.INTERIOR, at_zero
    return TransportClass.MIXED, at_zero


def sweep_cases():
    rng = np.random.default_rng(43)
    for params in sample_origin_params(rng, 12):
        yield origin_geodesic_disc(params), certified_left_inverse(params), "tetrablock"
    for _ in range(6):
        params = G2GeodesicParams(rng.uniform(1.0, 2.0), random_unimodular(rng))
        yield g2_geodesic_disc(params), G2FMap(params.omega), "g2"
    for _ in range(6):
        params = GeneralDiscParams(rng.uniform(0.0, 0.99), random_unimodular(rng),
                                   random_unimodular(rng), random_self_map(rng),
                                   random_self_map(rng))
        yield general_disc(params), None, "tetrablock"
    constant = OriginGeodesicParams(0.0, 1, 1, BlaschkeMap.identity())
    yield (lambda lam: TetraPoint(0.1, 0.1, 0.01)), certified_left_inverse(constant), \
        "tetrablock"


def test_sweeps_match_scalar_loops():
    lams = sample_grid()
    verdicts = set()
    for f, F, domain in sweep_cases():
        worst, residual, verdict = loop_verify(f, F, domain, lams)
        report = verify_disc(f, F)
        assert report.verdict is verdict
        assert report.samples == lams.size
        assert abs(report.max_e_value - worst) <= 1e-14
        if F is not None:
            assert abs(report.left_inverse_residual - residual) <= 1e-14
            assert abs(left_inverse_residual(f, F) - residual) <= 1e-14
        verdicts.add(verdict)
    assert verdicts == set(DiscVerdict)


def test_transport_classify_matches_scalar_loop():
    rng = np.random.default_rng(47)
    lams = sample_grid(n_angles=112)
    seen = set()
    for k in range(20):
        C = rng.uniform(0.0, 0.85)
        if k % 2:
            phi = random_phi_pinned(rng, C, "automorphism")
        else:
            zeta = random_unimodular(rng)
            phi = BlaschkeMap(zeta, ((C / 0.9) * zeta.conjugate(),), 0.9)
        params = OriginGeodesicParams(C, random_unimodular(rng), random_unimodular(rng), phi)
        expected, at_zero = loop_classify(origin_geodesic_disc(params), lams)
        transported = transport_disc(params)
        assert transported.classify() is expected
        # the closed-form value at 0 against the circle mean, which
        # magnifies last-digit differences of f by 1e5
        for got, want in zip(transported(0.0), at_zero):
            assert abs(got - want) <= 1e-10
        seen.add(expected)
    assert seen == {TransportClass.BOUNDARY, TransportClass.INTERIOR}


# ---------------------------------------------------------------------------
# circle search: golden-section reference
# ---------------------------------------------------------------------------

INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(fn, lo, hi, iters):
    a, b = lo, hi
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    best_x, best_v = (c, fc) if fc >= fd else (d, fd)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = fn(d)
        x, v = (c, fc) if fc >= fd else (d, fd)
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


def golden_max_on_circle(values_fn, refine_iters, n_angles=1024):
    """A 1024-angle grid, then golden-section refinement one angle at a time."""
    thetas = np.linspace(0.0, 2.0 * math.pi, n_angles, endpoint=False)
    vals = np.asarray(values_fn(thetas), dtype=float)
    i = int(np.argmax(vals))
    step = 2.0 * math.pi / n_angles
    best_val = float(vals[i])
    _, val_ref = golden_max(lambda t: float(values_fn(np.array([t]))[0]),
                            thetas[i] - step, thetas[i] + step, refine_iters)
    return max(best_val, val_ref)


def psi_values(z, thetas):
    eta = np.exp(1j * thetas)
    return (eta * z.z3 - z.z2) / (eta * z.z1 - 1.0)


def golden_psi_sup(z):
    return golden_max_on_circle(lambda t: np.abs(psi_values(z, t)), 40)


def golden_psi_bound(w, z):
    return golden_max_on_circle(
        lambda t: mobius_m(psi_values(w, t), psi_values(z, t)), 60)


def golden_p_e(w, z):
    return max(golden_psi_bound(w, z), golden_psi_bound(sigma(w), sigma(z)))


def golden_c_lower(w, z):
    return max(golden_p_e(w, z), mobius_m(magic_f(w), magic_f(z)),
               mobius_m(magic_f(sigma(w)), magic_f(sigma(z))))


def test_circle_search_matches_golden_section():
    points = random_interior_points(np.random.default_rng(53), 60)
    for z in points:
        assert abs(psi_sup(z) - golden_psi_sup(z)) <= 2e-15
    for w, z in zip(points[::2], points[1::2]):
        assert abs(p_e(w, z).m_scale - golden_p_e(w, z)) <= 2e-15
        assert abs(caratheodory_lower_bound(w, z).m_scale
                   - golden_c_lower(w, z)) <= 2e-15


def test_block_psi_sup_equals_scalar():
    rng = np.random.default_rng(59)
    n = 256
    # every fourth point has |z1| in (0.99, 0.9999), where Psi_eta peaks sharply
    radius = np.where(np.arange(n) % 4 == 0, rng.uniform(0.99, 0.9999, n),
                      rng.uniform(0.0, 0.99, n))
    z1 = radius * np.exp(2j * math.pi * rng.uniform(size=n))
    z2, z3 = (rng.uniform(-1.0, 1.0, size=(2, n))
              + 1j * rng.uniform(-1.0, 1.0, size=(2, n))) / math.sqrt(2.0)
    block = psi_sup(TetraPoint(z1, z2, z3))
    assert block.shape == (n,)
    for k in range(n):
        scalar = psi_sup(TetraPoint(complex(z1[k]), complex(z2[k]), complex(z3[k])))
        assert isinstance(scalar, float)
        assert block[k] == scalar


# ---------------------------------------------------------------------------
# necessary-condition checker: per-lambda reference
# ---------------------------------------------------------------------------


def loop_quadratic_fit(samples):
    """Row-by-row design matrix of the constrained model; (psi0, C, residual)."""
    rows, rhs = [], []
    for lam, value in samples:
        a, b = (lam * lam).real, (lam * lam).imag
        rows.append([1.0 - a, -b, -lam.imag])
        rhs.append(value.real)
        rows.append([-b, 1.0 + a, lam.real])
        rhs.append(value.imag)
    solution = np.linalg.lstsq(np.asarray(rows), np.asarray(rhs), rcond=None)[0]
    psi0, C = complex(solution[0], solution[1]), float(solution[2])
    residual = max(abs(-psi0.conjugate() * lam * lam + 1j * C * lam + psi0 - value)
                   for lam, value in samples)
    return psi0, C, residual


def necessary_cases():
    rng = np.random.default_rng(61)
    for params in sample_origin_params(rng, 8):
        f, F = origin_geodesic_disc(params), certified_left_inverse(params)
        for action in TETRABLOCK_ACTIONS:
            yield "psi-omega", F, f, action
    for _ in range(6):
        params = G2GeodesicParams(rng.uniform(1.0, 2.0), random_unimodular(rng))
        yield "g2-f", G2FMap(params.omega), g2_geodesic_disc(params), G2_ACTION


def test_necessary_check_matches_per_lambda_loop():
    seen = set()
    for name, F, f, action in necessary_cases():
        report, = geodesic_necessary_checks(F, f, (action,))
        samples = [(complex(lam), psi_of_lambda(F, f, (action,), complex(lam))[0])
                   for lam in fit_grid()]
        assert all(isinstance(value, complex) for _, value in samples)
        # the report carries the weighted sums its fit used
        assert report.psi.shape == (1, len(samples))
        assert all(abs(report.psi[0, j] - value) <= 1e-14
                   for j, (_, value) in enumerate(samples)), name
        psi0, C, residual = loop_quadratic_fit(samples)
        assert abs(report.fit.psi0[0, 0] - psi0) <= 1e-14, name
        assert abs(report.fit.C[0, 0] - C) <= 1e-14, name
        assert abs(report.fit.residual[0, 0] - residual) <= 1e-14, name
        verdict = CheckVerdict.PASS if residual < ANALYTIC_TOL else CheckVerdict.FIT_FAIL
        assert report.verdict[0, 0] is verdict, name
        seen.add(name)
    assert seen == {"psi-omega", "g2-f"}
