import cmath

import numpy as np
import pytest

from tetrablock.domains import TetraPoint
from tetrablock.errors import DomainError
from tetrablock.extremals import G2FMap, PsiOmegaMap
from tetrablock.geodesics import (G2GeodesicParams, OriginGeodesicParams,
                                  certified_left_inverse, g2_geodesic_disc,
                                  origin_geodesic_disc)
from tetrablock.hyperbolic import BlaschkeMap
from tetrablock.necessary import (_CONSTRAINED_DESIGN, _GENERAL_DESIGN, CheckVerdict,
                                  G2_ACTION, TETRABLOCK_ACTIONS,
                                  fit_general_quadratics, fit_grid,
                                  fit_quadratic_forms, geodesic_necessary_checks,
                                  psi_of_lambda)
from tetrablock.verify import random_unimodular, sample_origin_params

from oracles import numeric_gradient


class Linear:
    """The gradient of a linear map on C^n, the one part of F that
    ``psi_of_lambda`` calls."""

    def __init__(self, *gradient):
        self.coefficients = gradient

    def gradient(self, point):
        return self.coefficients


def field_components(action, point):
    """The components of the rotation field i a_j z_j at ``point``, each
    read off by ``psi_of_lambda`` with a coordinate map as F."""
    constant = lambda lam: point
    basis = [Linear(*(1.0 if j == k else 0.0 for j in range(len(point))))
             for k in range(len(point))]
    return tuple(psi_of_lambda(F, constant, (action,), 0.5)[0] for F in basis)


class TestVectorField:
    """The rotation field of an action's weights inside ``psi_of_lambda``."""

    def test_componentwise(self):
        assert field_components((1, 0, 1), (1, 1, 1)) == (1j, 0, 1j)

    def test_g2_weights(self):
        s, p = 0.3 + 0.1j, -0.2j
        assert field_components(G2_ACTION, (s, p)) == (1j * s, 2j * p)

    def test_zero(self):
        f = lambda lam: (0, 0)
        assert psi_of_lambda(Linear(0.3, -2j), f, (G2_ACTION,), 0.5) == [0]

    def test_dimension_mismatch(self):
        f = lambda lam: (1, 2, 3)
        with pytest.raises(DomainError):
            psi_of_lambda(Linear(1, 1, 1), f, (G2_ACTION,), 0.5)


class TestFit:
    def test_pure_rotation_model(self):
        lams = fit_grid()
        fit = fit_quadratic_forms([0.2j * lams])
        assert fit.psi0[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert fit.C[0, 0] == pytest.approx(0.2, abs=1e-14)
        assert fit.residual[0, 0] < 1e-12

    def test_full_model_recovery(self):
        psi0 = 0.1 + 0.2j
        lams = fit_grid()
        fit = fit_quadratic_forms([-psi0.conjugate() * lams * lams + 0.5j * lams + psi0])
        assert fit.psi0[0, 0] == pytest.approx(psi0, abs=1e-13)
        assert fit.C[0, 0] == pytest.approx(0.5, abs=1e-13)
        assert fit.residual[0, 0] < 1e-12
        assert fit.circular_a[0, 0] == pytest.approx(-1j * psi0, abs=1e-13)

    def test_cubic_rejected(self):
        lams = fit_grid()
        fit = fit_quadratic_forms([lams ** 3])
        assert fit.residual[0, 0] > 0.05

    def test_random_recovery_property(self):
        rng = np.random.default_rng(41)
        lams = fit_grid()
        for _ in range(100):
            psi0 = complex(*rng.uniform(-1, 1, 2))
            C = rng.uniform(-2, 2)
            fit = fit_quadratic_forms([-psi0.conjugate() * lams * lams
                                       + 1j * C * lams + psi0])
            assert abs(fit.psi0[0, 0] - psi0) < 1e-10
            assert abs(fit.C[0, 0] - C) < 1e-10

    def test_grid_points_are_distinct(self):
        # no two points coincide to 12 decimals
        lams = fit_grid()
        rounded = np.round(lams.real, 12) + 1j * np.round(lams.imag, 12)
        assert lams.size == 64 == np.unique(rounded).size

    def test_designs_have_full_rank(self):
        # the fits have three unknowns each: Re psi0, Im psi0 and C, and
        # c0, c1 and c2
        assert _CONSTRAINED_DESIGN.shape == (128, 3) and _GENERAL_DESIGN.shape == (64, 3)
        assert np.linalg.matrix_rank(_CONSTRAINED_DESIGN) == 3
        assert np.linalg.matrix_rank(_GENERAL_DESIGN) == 3

    def test_general_fit(self):
        c0, c1, c2 = 0.1 - 0.05j, 1.2 + 0.3j, -0.4j
        lams = fit_grid()
        got0, got1, got2, residual = fit_general_quadratics([c0 + c1 * lams
                                                             + c2 * lams * lams])
        assert got0[0, 0] == pytest.approx(c0, abs=1e-13)
        assert got1[0, 0] == pytest.approx(c1, abs=1e-13)
        assert got2[0, 0] == pytest.approx(c2, abs=1e-13)
        assert residual[0, 0] < 1e-12


class TestPsiOfLambda:
    def test_matches_rational_expression_on_origin_family(self):
        # with weights (1, 0, 1) and the eta = 1 family member, the weighted
        # sum collapses to (f1 f2 - f3) / (f1 - 1)^2
        params = OriginGeodesicParams(0.4, 1, 1, BlaschkeMap.constant(-0.4))
        f = origin_geodesic_disc(params)
        F = PsiOmegaMap(1.0)
        for lam in fit_grid()[::7]:
            point = f(lam)
            expected = 1j * (point.z1 * point.z2 - point.z3) / (point.z1 - 1) ** 2
            assert psi_of_lambda(F, f, ((1, 0, 1),), lam)[0] \
                == pytest.approx(expected, abs=1e-14)

    def test_constant_disc_constant_psi(self):
        f = lambda lam: TetraPoint(0, 0, 0)
        F = PsiOmegaMap(1.0)
        values = {value for lam in (0.1, 0.5j, -0.3)
                  for value in psi_of_lambda(F, f, TETRABLOCK_ACTIONS, lam)}
        assert values == {0.0}


class TestGeodesicNecessaryCheck:
    def test_origin_family_both_actions(self):
        rng = np.random.default_rng(43)
        for params in sample_origin_params(rng, 20):
            f = origin_geodesic_disc(params)
            F = certified_left_inverse(params)
            for report in geodesic_necessary_checks(F, f, TETRABLOCK_ACTIONS):
                assert report.verdict[0, 0] is CheckVerdict.PASS
                assert report.fit.residual[0, 0] < 1e-7

    def test_g2_family_fit_recovers_parameter(self):
        rng = np.random.default_rng(47)
        for C in (1.0, 1.25, 1.6, 2.0):
            params = G2GeodesicParams(C, random_unimodular(rng))
            f = g2_geodesic_disc(params)
            report, = geodesic_necessary_checks(G2FMap(params.omega), f, (G2_ACTION,))
            assert report.verdict[0, 0] is CheckVerdict.PASS
            assert abs(report.fit.circular_a[0, 0]) < 1e-9
            assert report.fit.C[0, 0] == pytest.approx(C, abs=1e-9)

    def test_hypothesis_violation_detected(self):
        f = lambda lam: TetraPoint(0.1, 0.1, 0.01)
        report, = geodesic_necessary_checks(PsiOmegaMap(1.0), f, TETRABLOCK_ACTIONS[:1])
        assert report.verdict[0, 0] is CheckVerdict.HYPOTHESIS_VIOLATION
        assert report.fit is None


class FirstCoordinate:
    """z -> z1 on C^2, with its gradient: a left inverse of the graph discs
    lam -> (lam, b(lam)) of the bidisc."""

    def __call__(self, point):
        return tuple(point)[0]

    def gradient(self, point):
        return (1.0 + 0.0j, 0.0j)


class TestReinhardt:
    """The check on the bidisc, a Reinhardt domain, under the rotation of
    one coordinate at a time."""

    def test_bidisc_graph_geodesic_first_coordinate(self):
        b = BlaschkeMap(zeros=(0.0,), scale=0.7)
        f = lambda lam: (lam, b(lam))
        report, = geodesic_necessary_checks(FirstCoordinate(), f, ((1, 0),))
        assert report.verdict[0, 0] is CheckVerdict.PASS
        assert report.fit.C[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert abs(report.fit.psi0[0, 0]) < 1e-12

    def test_bidisc_graph_geodesic_second_coordinate(self):
        # dF/dz2 vanishes identically, so the fit is of the zero function
        b = BlaschkeMap(zeros=(0.0,), scale=0.5)
        f = lambda lam: (lam, b(lam))
        report, = geodesic_necessary_checks(FirstCoordinate(), f, ((0, 1),))
        assert report.verdict[0, 0] is CheckVerdict.PASS
        assert report.fit.C[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert abs(report.fit.psi0[0, 0]) < 1e-14


class TestNumericGradient:
    def test_polynomial_exactness(self):
        fn = lambda z: z[0] ** 2 + 3 * z[0] * z[1] - z[1] ** 3
        grad = numeric_gradient(fn, (0.3 + 0.1j, -0.2j))
        assert grad[0] == pytest.approx(2 * (0.3 + 0.1j) + 3 * (-0.2j), abs=1e-10)
        assert grad[1] == pytest.approx(3 * (0.3 + 0.1j) - 3 * (-0.2j) ** 2, abs=1e-10)

    def test_builtin_maps_agree_with_numeric_on_interior_points(self):
        # interior samples for both built-in gradient carriers
        from tetrablock.verify import random_interior_points
        rng = np.random.default_rng(53)
        fmap = PsiOmegaMap(cmath.exp(0.6j))
        for z in random_interior_points(rng, 400):
            analytic = fmap.gradient(z)
            numeric = numeric_gradient(fmap, z.as_tuple())
            assert max(abs(a - b) for a, b in zip(analytic, numeric)) < 1e-8
        g2map = G2FMap(cmath.exp(-0.9j))
        for _ in range(200):
            lam = complex(*rng.uniform(-0.6, 0.6, 2))
            mu = complex(*rng.uniform(-0.6, 0.6, 2))
            point = (lam + mu, lam * mu)
            analytic = g2map.gradient(point)
            numeric = numeric_gradient(g2map, point)
            assert max(abs(a - b) for a, b in zip(analytic, numeric)) < 1e-8
