import cmath
import math

import numpy as np
import pytest

from tetrablock import geodesics
from tetrablock.domains import (Location, TetraPoint, g2_membership, is_interior,
                                psi_sup, tetra_e_value)
from tetrablock.errors import DomainError
from tetrablock.extremals import G2FMap, caratheodory_lower_bound, sigma
from tetrablock.geodesics import (DiscVerdict, G2GeodesicParams,
                                  GeneralDiscParams, OriginGeodesicParams,
                                  TransportClass, blaschke_interp_origin,
                                  certified_left_inverse,
                                  disc_search_upper_bound, eval_boundary_disc,
                                  eval_general_disc, eval_origin_geodesic,
                                  g2_geodesic_disc,
                                  g2_origin_geodesic, g2_violation_witness,
                                  general_disc,
                                  is_product_geodesic,
                                  left_inverse_residual, lempert_special,
                                  origin_geodesic_disc, origin_lempert,
                                  product_disc, sample_grid,
                                  solve_origin_geodesic_through,
                                  transport_disc, transported_extremal,
                                  transported_extremal_disc, verify_disc)
from tetrablock.hyperbolic import BlaschkeMap, disc_automorphism, mobius_m
from tetrablock.verify import (random_disc_point, random_interior_points,
                               random_phi_pinned, random_unimodular,
                               sample_origin_params)


class TestOriginGeodesic:
    def test_fixes_origin(self):
        p = OriginGeodesicParams(0.4, 1, 1, BlaschkeMap.constant(-0.4))
        assert eval_origin_geodesic(p, 0.0) == TetraPoint(0, 0, 0)

    def test_identity_phi(self):
        p = OriginGeodesicParams(0.0, 1, 1, BlaschkeMap.identity())
        assert eval_origin_geodesic(p, 0.5) == TetraPoint(0.5, 0.5, 0.25)

    def test_constant_phi(self):
        p = OriginGeodesicParams(0.5, 1, 1, BlaschkeMap.constant(-0.5))
        point = eval_origin_geodesic(p, 0.5)
        assert point.z1 == 0.0
        assert point.z2 == pytest.approx(0.25)
        assert point.z3 == pytest.approx(-0.25)

    def test_phi_value_constraint_enforced(self):
        with pytest.raises(DomainError):
            OriginGeodesicParams(0.5, 1, 1, BlaschkeMap.constant(-0.4))

    def test_degenerate_edge(self):
        # C = 1 pins phi to the constant -1 and the disc to (0, 0, -w1 w2 lam)
        p = OriginGeodesicParams(1.0, 1, 1, BlaschkeMap.constant(-1.0))
        point = eval_origin_geodesic(p, 0.3)
        assert point == TetraPoint(0, 0, -0.3)
        with pytest.raises(DomainError):
            OriginGeodesicParams(1.0, 1, 1, disc_automorphism(1 - 1e-13))

    def test_certificate(self):
        rng = np.random.default_rng(1)
        for params in sample_origin_params(rng, 20):
            f = origin_geodesic_disc(params)
            F = certified_left_inverse(params)
            assert left_inverse_residual(f, F) < 1e-12
            for lam in (0.3, -0.4j, 0.5 + 0.2j):
                assert mobius_m(0.0, complex(F(f(lam)))) == pytest.approx(
                    abs(lam), abs=1e-14)


class TestGeneralDisc:
    def test_reduces_to_origin_family_for_identity_psi(self):
        phi = random_phi_pinned(np.random.default_rng(3), 0.4, "scaled")
        origin = OriginGeodesicParams(0.4, 1, 1, phi)
        generic = GeneralDiscParams(0.4, 1, 1, phi, BlaschkeMap.identity())
        for lam in (0.2, -0.5j, 0.3 + 0.3j):
            a = eval_origin_geodesic(origin, lam)
            b = eval_general_disc(generic, lam)
            assert a.z1 == pytest.approx(b.z1, abs=1e-15)
            assert a.z2 == pytest.approx(b.z2, abs=1e-15)
            assert a.z3 == pytest.approx(b.z3, abs=1e-15)

    def test_hand_computed_point(self):
        p = GeneralDiscParams(0.3, 1, 1, BlaschkeMap.constant(0.1),
                              BlaschkeMap.identity())
        point = eval_general_disc(p, 0.2)
        assert point.z1 == pytest.approx(0.4 / 1.3, abs=1e-15)
        assert point.z2 == pytest.approx(0.2 * 1.03 / 1.3, abs=1e-15)
        assert point.z3 == pytest.approx(0.02, abs=1e-16)

    def test_inclusion_sweep(self):
        rng = np.random.default_rng(5)
        from tetrablock.verify import random_self_map
        for _ in range(50):
            p = GeneralDiscParams(rng.uniform(0, 0.99), random_unimodular(rng),
                                  random_unimodular(rng), random_self_map(rng),
                                  random_self_map(rng))
            f = general_disc(p)
            for lam in sample_grid(radii=(0.3, 0.6, 0.9), n_angles=8):
                assert tetra_e_value(f(lam)) < 1.0

    def test_c_below_one_strict(self):
        with pytest.raises(DomainError):
            GeneralDiscParams(1.0, 1, 1, BlaschkeMap.identity(),
                              BlaschkeMap.identity())


class TestBoundaryDisc:
    def test_simplest_member(self):
        point = eval_boundary_disc(0.0, 1, 1, BlaschkeMap.constant(0.0), 0.2)
        assert point == TetraPoint(0, 1, 0)
        assert tetra_e_value(point) == 1.0

    def test_identity_value(self):
        point = eval_boundary_disc(0.5, 1, 1, BlaschkeMap.constant(0.2), 0.3j)
        assert tetra_e_value(point) == pytest.approx(1.0, abs=1e-14)

    def test_random_sweep(self):
        rng = np.random.default_rng(7)
        from tetrablock.verify import random_self_map
        for _ in range(50):
            C = rng.uniform(0, 1)
            phi = random_self_map(rng)
            w1, w2 = random_unimodular(rng), random_unimodular(rng)
            for lam in sample_grid(radii=(0.2, 0.5, 0.8), n_angles=8):
                e = tetra_e_value(eval_boundary_disc(C, w1, w2, phi, lam))
                assert e == pytest.approx(1.0, abs=1e-12)


class TestLeftInverseResidual:
    def test_constant_disc_fails(self):
        constant = lambda lam: TetraPoint(0.1, 0.1, 0.01)
        F = certified_left_inverse(
            OriginGeodesicParams(0.0, 1, 1, BlaschkeMap.identity()))
        residual = left_inverse_residual(constant, F)
        assert residual > 0.5
        report = verify_disc(constant, F)
        assert report.verdict is DiscVerdict.FAILED

    def test_g2_geodesic_certificate(self):
        p = G2GeodesicParams(1.4, cmath.exp(0.5j))
        residual = left_inverse_residual(g2_geodesic_disc(p), G2FMap(p.omega))
        assert residual < 1e-12

    @pytest.mark.parametrize("grid", [{"n_angles": 0}, {"radii": ()}])
    def test_empty_grid_rejected(self, grid):
        params = OriginGeodesicParams(0.5, 1, 1, disc_automorphism(0.5))
        f, F = origin_geodesic_disc(params), certified_left_inverse(params)
        with pytest.raises(DomainError):
            verify_disc(f, F, **grid)
        with pytest.raises(DomainError):
            left_inverse_residual(f, F, **grid)

    def test_verify_disc_without_left_inverse(self):
        p = GeneralDiscParams(0.2, 1, 1, BlaschkeMap.constant(0.3),
                              BlaschkeMap.constant(0.1))
        report = verify_disc(general_disc(p))
        assert report.verdict is DiscVerdict.IN_DOMAIN_ONLY


class TestTransport:
    def test_linear_disc_transports_to_constant(self):
        a, b, c = 0.2 + 0.1j, 0.3, -0.25j
        f = lambda lam: TetraPoint(lam * a, b, lam * c)
        transported = transport_disc(f)
        assert transported.value_at_zero.z1 == pytest.approx(a, abs=1e-12)
        assert transported(0.5).z1 == pytest.approx(a, abs=1e-14)
        assert transported(0.5).z3 == pytest.approx(c, abs=1e-14)

    def test_precondition(self):
        with pytest.raises(DomainError):
            transport_disc(lambda lam: TetraPoint(0.1, 0.0, 0.0))

    def test_value_at_zero_uses_derivative(self):
        C = 0.4
        phi = random_phi_pinned(np.random.default_rng(11), C, "scaled")
        params = OriginGeodesicParams(C, cmath.exp(0.2j), cmath.exp(-0.7j), phi)
        transported = transport_disc(origin_geodesic_disc(params))
        at_zero = transported.value_at_zero
        expected_z1 = params.omega1 * phi.derivative(0.0) / (1 + C)
        assert at_zero.z1 == pytest.approx(expected_z1, abs=1e-10)
        assert at_zero.z2 == 0.0
        assert at_zero.z3 == pytest.approx(-params.omega1 * params.omega2 * C,
                                           abs=1e-12)

    def test_automorphism_phi_gives_boundary(self):
        # Schwarz-Pick equality |phi'(0)| = 1 - C^2 pushes the transported
        # disc onto the boundary
        C = 0.35
        phi = random_phi_pinned(np.random.default_rng(13), C, "automorphism")
        assert abs(phi.derivative(0.0)) == pytest.approx(1 - C * C, abs=1e-12)
        params = OriginGeodesicParams(C, 1, 1, phi)
        assert transport_disc(origin_geodesic_disc(params)).classify() \
            is TransportClass.BOUNDARY

    def test_strict_contraction_gives_interior(self):
        C = 0.35
        zeta = cmath.exp(0.8j)
        phi = BlaschkeMap(zeta, ((C / 0.9) * zeta.conjugate(),), 0.9)
        params = OriginGeodesicParams(C, 1, 1, phi)
        assert transport_disc(origin_geodesic_disc(params)).classify() \
            is TransportClass.INTERIOR


class TestTransportedExtremal:
    def test_constant_phi_family(self):
        point = transported_extremal(0.5, 1, 1, BlaschkeMap.constant(-0.5), 0.3)
        assert point.z1 == 0.0
        assert point.z2 == pytest.approx(0.15)
        assert point.z3 == pytest.approx(-0.5)

    def test_rejects_automorphism(self):
        with pytest.raises(DomainError):
            transported_extremal_disc(0.5, 1, 1, disc_automorphism(0.5))

    def test_omits_product_slice(self):
        rng = np.random.default_rng(17)
        for kind in ("constant", "scaled", "degree2"):
            C = rng.uniform(0.1, 0.8)
            phi = random_phi_pinned(rng, C, kind)
            disc = transported_extremal_disc(C, random_unimodular(rng),
                                             random_unimodular(rng), phi)
            for lam in sample_grid(radii=(0.0, 0.3, 0.6, 0.9), n_angles=8):
                p = disc(lam)
                assert abs(p.z1 * p.z2 - p.z3) > 0.0

    def test_matches_transport_of_origin_family(self):
        C = 0.4
        phi = random_phi_pinned(np.random.default_rng(19), C, "scaled")
        params = OriginGeodesicParams(C, cmath.exp(0.1j), cmath.exp(0.6j), phi)
        direct = transported_extremal_disc(C, params.omega1, params.omega2, phi)
        via_transport = transport_disc(origin_geodesic_disc(params))
        for lam in (0.0, 0.4, -0.3 + 0.2j):
            a, b = direct(lam), via_transport(lam)
            assert a.z1 == pytest.approx(b.z1, abs=1e-10)
            assert a.z2 == pytest.approx(b.z2, abs=1e-10)
            assert a.z3 == pytest.approx(b.z3, abs=1e-10)


class TestLempertSpecial:
    def test_zero(self):
        assert lempert_special(0.0, 0.3).m_scale == 0.0

    def test_hand_value(self):
        assert lempert_special(0.3, 0.5).m_scale == pytest.approx(0.6)

    def test_w_zero_reduction(self):
        assert lempert_special(0.25j, 0.0).m_scale == pytest.approx(0.25)

    def test_precondition(self):
        with pytest.raises(DomainError):
            lempert_special(0.6, 0.5)


class TestProductDisc:
    def test_axis(self):
        point = product_disc(BlaschkeMap.identity(), BlaschkeMap.constant(0.0), 0.4)
        assert point == TetraPoint(0.4, 0, 0)

    def test_squaring_factor(self):
        b = BlaschkeMap(zeros=(0.0, 0.0))
        point = product_disc(BlaschkeMap.identity(), b, 0.5)
        assert point == TetraPoint(0.5, 0.25, 0.125)
        assert tetra_e_value(point) < 1.0

    def test_geodesic_flag(self):
        assert is_product_geodesic(BlaschkeMap.identity(), BlaschkeMap.constant(0.2))
        assert not is_product_geodesic(BlaschkeMap.constant(0.1),
                                       BlaschkeMap(zeros=(0.0, 0.0)))

    def test_sandwich_equality_on_product_slice(self):
        from tetrablock.extremals import caratheodory_lower_bound
        w = TetraPoint(0.2, 0.3, 0.06)
        z = TetraPoint(0.4, 0.1, 0.04)
        expected = max(mobius_m(0.2, 0.4), mobius_m(0.3, 0.1))
        upper = disc_search_upper_bound(w, z)
        lower = caratheodory_lower_bound(w, z)
        assert upper.bound.m_scale == pytest.approx(expected, abs=1e-9)
        assert lower.m_scale == pytest.approx(expected, abs=1e-9)


class TestG2Geodesics:
    def test_c_two_reduces_to_rotation(self):
        omega = cmath.exp(0.4j)
        p = G2GeodesicParams(2.0, omega)
        for lam in (0.3, -0.2 + 0.4j):
            point = g2_origin_geodesic(p, lam)
            assert point.s == pytest.approx(0.0, abs=1e-15)
            assert point.p == pytest.approx(omega.conjugate() * lam, abs=1e-14)

    def test_c_one_symmetrizes_diagonal(self):
        p = G2GeodesicParams(1.0, 1.0)
        point = g2_origin_geodesic(p, 0.4)
        assert point.s == pytest.approx(-0.8)
        assert point.p == pytest.approx(0.16)

    def test_window_is_necessary(self):
        for C in (0.9, 2.1, 2.5):
            assert g2_violation_witness(C, 1.0) is not None
        for C in (1.0, 1.5, 2.0):
            assert g2_violation_witness(C, 1.0) is None

    def test_out_of_window_constructor_rejected(self):
        with pytest.raises(DomainError):
            G2GeodesicParams(2.5, 1.0)

    def test_membership_along_disc(self):
        p = G2GeodesicParams(1.3, cmath.exp(1.1j))
        f = g2_geodesic_disc(p)
        for lam in sample_grid():
            assert g2_membership(f(lam)).location is Location.INTERIOR


class TestBlaschkeInterpOrigin:
    def test_constant_case(self):
        phi = blaschke_interp_origin(0.3, 0.5, -0.3)
        assert phi.is_constant
        assert phi(0.7) == pytest.approx(-0.3)

    def test_automorphism_case(self):
        # m(-C, v) = |lam0| forces the extremal (automorphism) interpolant
        C, lam0 = 0.4, 0.5
        v = (lam0 - C) / (1 - C * lam0)
        phi = blaschke_interp_origin(C, lam0, v)
        assert phi.is_automorphism
        assert phi(0.0) == pytest.approx(-C, abs=1e-12)
        assert phi(lam0) == pytest.approx(v, abs=1e-12)

    def test_interior_targets(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            C = rng.uniform(0.0, 0.9)
            lam0 = (0.2 + 0.7 * rng.uniform()) * random_unimodular(rng)
            # a target strictly inside the reachable hyperbolic ball: the
            # image of t*direction under the automorphism sending 0 to -C
            t = rng.uniform(0.0, 0.999) * abs(lam0)
            x = t * random_unimodular(rng)
            v = (x - C) / (1 - C * x)
            phi = blaschke_interp_origin(C, lam0, v)
            assert abs(complex(phi(0.0)) + C) < 1e-10
            assert abs(complex(phi(lam0)) - v) < 1e-9

    def test_infeasible_rejected(self):
        with pytest.raises(DomainError):
            blaschke_interp_origin(0.2, 0.3, 0.9)

    def test_target_next_to_the_constant(self):
        # m(-C, v) is about 1e-12, just above the constant cut-off
        C, lam0 = 0.039425415843442856, -0.2923255573214569 - 0.21662084895563136j
        v = -0.039425415842538836 + 5.129579971591606e-13j
        phi = blaschke_interp_origin(C, lam0, v)
        assert abs(complex(phi(0.0)) + C) < 1e-15
        assert abs(complex(phi(lam0)) - v) < 1e-15


class TestOriginSolver:
    def test_round_trip_automorphism(self):
        phi = disc_automorphism(0.5)
        params = OriginGeodesicParams(0.5, 1, 1, phi)
        z = eval_origin_geodesic(params, 0.4)
        sol = origin_lempert(z)
        assert sol is not None
        assert abs(sol.lam0) == pytest.approx(0.4, abs=1e-10)
        assert sol.residual < 1e-10

    def test_round_trip_rotated(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            C = rng.uniform(0.0, 0.85)
            kind = ("constant", "automorphism", "scaled", "degree2")[int(rng.integers(4))]
            params = OriginGeodesicParams(C, random_unimodular(rng),
                                          random_unimodular(rng),
                                          random_phi_pinned(rng, C, kind))
            lam0 = (0.15 + 0.6 * rng.uniform()) * random_unimodular(rng)
            z = eval_origin_geodesic(params, lam0)
            sol = solve_origin_geodesic_through(z, lam0, phi_degree=2)
            assert sol is not None, (C, kind)
            target = sol.disc()(lam0)
            assert max(abs(a - b) for a, b in zip(target, z)) < 1e-9

    def test_spec_point(self):
        sol = solve_origin_geodesic_through(TetraPoint(0.5, 0.5, 0.25), 0.5)
        assert sol is not None
        assert sol.params.C == pytest.approx(0.0, abs=1e-10)
        assert sol.residual < 1e-9

    def test_exterior_rejected(self):
        with pytest.raises(DomainError):
            solve_origin_geodesic_through(TetraPoint(2, 0, 0), 0.5)

    def test_wrong_modulus_not_found(self):
        params = OriginGeodesicParams(0.5, 1, 1, BlaschkeMap.constant(-0.5))
        z = eval_origin_geodesic(params, 0.4)
        assert solve_origin_geodesic_through(z, 0.2) is None

    @pytest.mark.parametrize("offset", [1e-14, 1e-12, 1e-10])
    @pytest.mark.parametrize("coord", [0, 1])
    def test_next_to_the_first_two_axes(self, coord, offset):
        # z1 or z2 within offset of 0: the value is the Schwarz-lemma one
        rng = np.random.default_rng(37)
        solved = 0
        for z in random_interior_points(rng, 30):
            coords = list(z.as_tuple())
            coords[coord] = offset * random_unimodular(rng)
            z = TetraPoint(*coords)
            if not is_interior(z):
                continue
            sol = origin_lempert(z)
            assert sol is not None and sol.residual < 1e-12
            assert abs(abs(sol.lam0) - max(psi_sup(z), psi_sup(sigma(z)))) < 1e-14
            solved += 1
        assert solved >= 10

    def test_product_point_value_dominated_by_larger_coordinate(self):
        # geodesics through product points are not unique; whichever
        # representation the closed form picks, the value is the larger
        # coordinate distance
        z = TetraPoint(0.25, 0.5, 0.125)
        sol = origin_lempert(z)
        assert sol is not None
        assert sol.value.m_scale == pytest.approx(0.5, abs=1e-10)
        assert sol.residual < 1e-10


class TestDiscSearch:
    def test_trivial_pair(self):
        z = TetraPoint(0.1, 0.2, 0.02)
        result = disc_search_upper_bound(z, z)
        assert result.found and result.bound.m_scale == 0.0

    def test_axis_pair_matches_closed_form(self):
        result = disc_search_upper_bound(TetraPoint(0, 0, -0.5),
                                         TetraPoint(0, 0.05, -0.5))
        assert result.found
        assert result.bound.m_scale == pytest.approx(0.1, abs=1e-12)
        assert result.residual < 1e-18

    def test_never_undershoots_closed_form(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            w3 = 0.4 * random_unimodular(rng) * rng.uniform(0.1, 1.0)
            z2 = 0.5 * random_unimodular(rng) * rng.uniform(0.1, 1.0)
            if abs(z2) + abs(w3) >= 0.95:
                continue
            result = disc_search_upper_bound(TetraPoint(0, 0, w3),
                                             TetraPoint(0, z2, w3))
            closed = lempert_special(z2, w3).m_scale
            assert result.found
            assert closed - 1e-9 <= result.bound.m_scale <= closed + 1e-9

    def test_origin_route_recovers_generating_disc(self):
        phi = disc_automorphism(0.5)
        params = OriginGeodesicParams(0.5, 1, 1, phi)
        z = eval_origin_geodesic(params, 0.5)
        result = disc_search_upper_bound(TetraPoint(0, 0, 0), z)
        assert result.found
        assert result.bound.m_scale == pytest.approx(0.5, abs=1e-9)

    def test_generic_search_produces_certified_bound(self):
        p = GeneralDiscParams(0.3, 1, 1, BlaschkeMap.constant(0.1),
                              BlaschkeMap.identity())
        w = eval_general_disc(p, 0.1)
        z = eval_general_disc(p, 0.45)
        result = disc_search_upper_bound(w, z, budget=30000)
        assert result.found
        assert result.residual < 1e-9
        # any accepted interpolant upper-bounds the true geodesic value
        assert result.bound.m_scale >= mobius_m(0.1, 0.45) - 1e-6

    def test_exterior_rejected(self):
        with pytest.raises(DomainError):
            disc_search_upper_bound(TetraPoint(2, 0, 0), TetraPoint(0, 0, 0))


def blaschke_of_degree(rng, degree):
    zeros = tuple(random_disc_point(rng, 0.9) for _ in range(degree))
    return BlaschkeMap(random_unimodular(rng), zeros, rng.uniform(0.3, 1.0))


# the benchmark's fixed generic pair
BENCH_W = TetraPoint(0.18844673057094008 + 0.2214883401940817j,
                     -0.11107857602089621 + 0.025354322475725888j,
                     -0.3649034949775888 - 0.18975812444104434j)
BENCH_Z = TetraPoint(0.16533039839826616 + 0.27428910469512124j,
                     -0.11566110998681553 - 0.01916036630972772j,
                     -0.3371857764193749 - 0.136232836075168j)


def moved_family_pair(rng, degree, scale):
    """Two points of a random general disc with maps of the given degree,
    each moved by ``scale`` in a random direction, and the lam at which the
    disc takes each."""
    p = GeneralDiscParams(rng.uniform(0.001, 0.999), random_unimodular(rng),
                          random_unimodular(rng), blaschke_of_degree(rng, degree),
                          blaschke_of_degree(rng, degree))
    f = general_disc(p)
    lams, ends = [], []
    for _ in range(2):
        lams.append(random_disc_point(rng, 0.95))
        point = np.array(f(lams[-1]).as_tuple())
        step = rng.normal(size=3) + 1j * rng.normal(size=3)
        ends.append(TetraPoint(*(point + scale * step / np.linalg.norm(step))))
    return ends, lams


class TestGeneralDiscCertificate:
    """The general-disc route builds its discs from the closed-form members
    of the endpoints and accepts one only when it passes through both: it
    finds every pair the family reaches, and its bound never falls below
    c_lower."""

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("scale", [0.0])
    def test_never_prunes_family_pairs(self, degree, scale):
        rng = np.random.default_rng(100 + degree)
        for _ in range(150):
            ends, lams = moved_family_pair(rng, degree, scale)
            result = disc_search_upper_bound(*ends, family="general-disc")
            assert result.found and result.family == "general-disc"
            c_lower = caratheodory_lower_bound(*ends).m_scale
            assert c_lower - 1e-12 <= result.bound.m_scale <= mobius_m(*lams) + 1e-12

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("scale", [1e-6, 1e-5, 3e-5])
    def test_moved_family_pairs_keep_the_sandwich(self, degree, scale):
        # a disc that misses an endpoint by the move is no interpolant, and
        # earlier versions that accepted such discs reported bounds up to
        # 1.8e-4 below c_lower
        rng = np.random.default_rng(100 + degree)
        for _ in range(150):
            ends, _ = moved_family_pair(rng, degree, scale)
            result = disc_search_upper_bound(*ends)
            if result.found:
                c_lower = caratheodory_lower_bound(*ends).m_scale
                assert result.bound.m_scale >= c_lower - 1e-9

    @pytest.mark.parametrize("budget", [0, 1, 2, 100000])
    def test_budget_caps_the_discs_built(self, monkeypatch, budget):
        built = []

        def counting(params):
            built.append(params)
            return general_disc(params)

        monkeypatch.setattr(geodesics, "general_disc", counting)
        rng = np.random.default_rng(7)
        p = GeneralDiscParams(0.3, 1, 1, BlaschkeMap.constant(0.1), BlaschkeMap.identity())
        pairs = [(eval_general_disc(p, 0.1), eval_general_disc(p, 0.45)),
                 (TetraPoint(0.1, 0.05, 0.02), TetraPoint(0.12, 0.07, 0.03)),
                 (BENCH_W, BENCH_Z)]
        pairs += [moved_family_pair(rng, 1, 0.0)[0] for _ in range(10)]
        for w, z in pairs:
            built.clear()
            result = disc_search_upper_bound(w, z, family="general-disc", budget=budget)
            assert result.evaluations == len(built) <= min(budget, result.starts)
            if budget == 0:
                assert not result.found
                assert result.reason == (f"general-disc: {result.starts} starts, "
                                         "0 evaluations, best residual inf")

    def test_bench_pair_ends_after_few_candidates(self):
        result = disc_search_upper_bound(BENCH_W, BENCH_Z, budget=20000)
        assert not result.found and result.family == "none"
        assert 0 < result.starts <= 4
        assert result.reason.startswith(f"general-disc: {result.starts} starts, ")

    def test_search_reports_its_counts(self):
        p = GeneralDiscParams(0.3, 1, 1, BlaschkeMap.constant(0.1), BlaschkeMap.identity())
        w, z = eval_general_disc(p, 0.1), eval_general_disc(p, 0.45)
        result = disc_search_upper_bound(w, z, family="general-disc", budget=300)
        assert result.found and result.starts >= 1 and 0 < result.evaluations <= 300
        prefix = (f"general-disc: {result.starts} starts, {result.evaluations} "
                  "evaluations, best residual ")
        assert result.reason.startswith(prefix)

    @pytest.mark.parametrize("C", [0.3, 0.99])
    def test_exact_bound_of_a_family_pair(self, C):
        # the least-squares search of earlier versions capped C below 0.98
        # and found nothing at C = 0.99
        p = GeneralDiscParams(C, 1, 1, BlaschkeMap.constant(0.1), BlaschkeMap.identity())
        w, z = eval_general_disc(p, 0.1), eval_general_disc(p, 0.45)
        result = disc_search_upper_bound(w, z)
        assert result.found and result.family == "general-disc"
        assert result.residual < 1e-20
        assert abs(result.bound.m_scale - mobius_m(0.1, 0.45)) < 1e-12

    def test_start_where_phi_vanishes(self):
        # psi vanishes at both points, so both have z2 = z3 = 0 and no
        # closed-form member; phi vanishes at the first
        p = GeneralDiscParams(0.4, cmath.exp(0.7j), 1, disc_automorphism(0.3),
                              BlaschkeMap(1, (0.3, -0.5j), 0.8))
        w, z = eval_general_disc(p, 0.3), eval_general_disc(p, -0.5j)
        assert w.z3 == 0 and z.z2 == 0
        result = disc_search_upper_bound(w, z, family="general-disc")
        assert result.found
        assert abs(result.bound.m_scale - mobius_m(0.3, -0.5j)) < 1e-12

    def test_closed_routes_give_their_reason(self):
        result = disc_search_upper_bound(TetraPoint(0, 0, -0.5), TetraPoint(0, 0.05, -0.5))
        assert result.reason == "axis-pair: closed form"
        assert (result.starts, result.evaluations) == (0, 0)
        missing = disc_search_upper_bound(BENCH_W, BENCH_Z, family="product")
        assert not missing.found and missing.reason == "product: not applicable"
