"""The array path against per-sample scalar evaluation.

Each disc family evaluated once on a whole sample grid must equal its scalar
evaluator point by point, and the grid sweeps must give the verdicts and
residuals of the per-lambda loops kept here as the reference.
"""

import cmath

import numpy as np
import pytest

from tetrablock.domains import TetraPoint, g2_membership, tetra_e_value
from tetrablock.extremals import G2FMap
from tetrablock.geodesics import (DEFAULT_RADII, DiscVerdict, G2GeodesicParams,
                                  GeneralDiscParams, OriginGeodesicParams,
                                  TransportClass, boundary_disc,
                                  certified_left_inverse, eval_boundary_disc,
                                  eval_general_disc, eval_origin_geodesic,
                                  g2_geodesic_disc, g2_origin_geodesic,
                                  general_disc, left_inverse_residual,
                                  origin_geodesic_disc, sample_grid,
                                  transport_disc, transported_extremal,
                                  transported_extremal_disc, verify_disc)
from tetrablock.hyperbolic import BlaschkeMap
from tetrablock.verify import (random_phi_pinned, random_self_map,
                               random_unimodular, sample_origin_params)

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
        yield general_disc(params), lambda lam, p=params: eval_general_disc(p, lam)


def boundary_family(rng):
    for _ in range(20):
        args = (rng.uniform(0.0, 1.0), random_unimodular(rng),
                random_unimodular(rng), random_self_map(rng))
        yield boundary_disc(*args), lambda lam, a=args: eval_boundary_disc(*a, lam)


def transported_family(rng):
    for k in range(21):
        C = rng.uniform(0.1, 0.8)
        phi = random_phi_pinned(rng, C, ("constant", "scaled", "degree2")[k % 3])
        args = (C, random_unimodular(rng), random_unimodular(rng), phi)
        yield (transported_extremal_disc(*args),
               lambda lam, a=args: transported_extremal(*a, lam))


def g2_family(rng):
    for _ in range(20):
        params = G2GeodesicParams(rng.uniform(1.0, 2.0), random_unimodular(rng))
        yield g2_geodesic_disc(params), lambda lam, p=params: g2_origin_geodesic(p, lam)


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
        report = verify_disc(f, F, domain=domain)
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
    lams = sample_grid()
    seen = set()
    for k in range(20):
        C = rng.uniform(0.0, 0.85)
        if k % 2:
            phi = random_phi_pinned(rng, C, "automorphism")
        else:
            zeta = random_unimodular(rng)
            phi = BlaschkeMap(zeta, ((C / 0.9) * zeta.conjugate(),), 0.9)
        f = origin_geodesic_disc(OriginGeodesicParams(C, random_unimodular(rng),
                                                      random_unimodular(rng), phi))
        expected, at_zero = loop_classify(f, lams)
        transported = transport_disc(f)
        assert transported.classify() is expected
        # circle means of f/node at radius 1e-5 magnify last-digit
        # differences of f by 1e5
        for got, want in zip(transported.value_at_zero, at_zero):
            assert abs(got - want) <= 1e-10
        seen.add(expected)
    assert seen == {TransportClass.BOUNDARY, TransportClass.INTERIOR}
