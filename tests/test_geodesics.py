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
                                  boundary_disc, disc_search_upper_bound,
                                  eval_general_disc, eval_origin_geodesic,
                                  g2_geodesic_disc,
                                  g2_origin_geodesic, g2_violation_witness,
                                  general_disc,
                                  left_inverse_residual, lempert_special,
                                  origin_geodesic_disc, origin_lempert,
                                  sample_grid,
                                  solve_origin_geodesic_through,
                                  transport_disc, verify_disc)
from tetrablock.hyperbolic import BlaschkeMap, disc_automorphism, mobius_m
from tetrablock.verify import (PHI_KINDS, random_disc_point,
                               random_interior_points, random_phi_pinned,
                               random_unimodular, sample_origin_params)


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

    def test_nan_parameters_rejected(self):
        # a NaN omega1 used to give a record with omega1 = nan+nanj
        with pytest.raises(DomainError):
            OriginGeodesicParams(0.3, math.nan, 1, BlaschkeMap.constant(-0.3))

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
        point = boundary_disc(0.0, 1, 1, BlaschkeMap.constant(0.0))(0.2)
        assert point == TetraPoint(0, 1, 0)
        assert tetra_e_value(point) == 1.0

    def test_identity_value(self):
        point = boundary_disc(0.5, 1, 1, BlaschkeMap.constant(0.2))(0.3j)
        assert tetra_e_value(point) == pytest.approx(1.0, abs=1e-14)

    def test_random_sweep(self):
        rng = np.random.default_rng(7)
        from tetrablock.verify import random_self_map
        for _ in range(50):
            C = rng.uniform(0, 1)
            phi = random_self_map(rng)
            w1, w2 = random_unimodular(rng), random_unimodular(rng)
            disc = boundary_disc(C, w1, w2, phi)
            for lam in sample_grid(radii=(0.2, 0.5, 0.8), n_angles=8):
                e = tetra_e_value(disc(lam))
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

    @pytest.mark.parametrize("grid", [{"n_angles": 0}, {"n_angles": -3}])
    def test_empty_grid_rejected(self, grid):
        params = OriginGeodesicParams(0.5, 1, 1, disc_automorphism(0.5))
        f, F = origin_geodesic_disc(params), certified_left_inverse(params)
        with pytest.raises(DomainError, match="grid is empty"):
            verify_disc(f, F, **grid)

    def test_verify_disc_reads_the_domain_off_the_disc(self):
        # a G2 disc used to need domain="g2" and raised a bare ValueError
        p = G2GeodesicParams(1.5, 1)
        report = verify_disc(g2_geodesic_disc(p), G2FMap(p.omega))
        assert report.verdict is DiscVerdict.GEODESIC_VERIFIED
        assert verify_disc(g2_geodesic_disc(p)).verdict is DiscVerdict.IN_DOMAIN_ONLY
        for f in (lambda lam: lam, lambda lam: 0.5, lambda lam: (lam,) * 4):
            with pytest.raises(DomainError, match="two .* or three"):
                verify_disc(f)

    def test_verify_disc_without_left_inverse(self):
        p = GeneralDiscParams(0.2, 1, 1, BlaschkeMap.constant(0.3),
                              BlaschkeMap.constant(0.1))
        report = verify_disc(general_disc(p))
        assert report.verdict is DiscVerdict.IN_DOMAIN_ONLY


def circle_mean_at_zero(p):
    """The value at 0 of the transported disc as the discrete circle mean of
    f1/lam and f3/lam over 64 points of radius 1e-5, the fill transport
    used before the closed form: it annihilates every Taylor mode below
    order 64, and the division by 1e-5 magnifies last-digit differences of
    f by 1e5."""
    nodes = 1e-5 * np.exp(2j * math.pi * np.arange(64) / 64)
    value = origin_geodesic_disc(p)(nodes)
    stacked = value.z1.ndim > 1
    return (np.mean(value.z1 / nodes, axis=-1, keepdims=stacked),
            np.mean(value.z3 / nodes, axis=-1, keepdims=stacked))


class TestTransport:
    def test_linear_disc_transports_to_constant(self):
        # a constant phi = -C makes the origin geodesic linear,
        # lam (0, w2 (1 - C), -w1 w2 C), so z1 and z3 transport to constants
        C, omega1, omega2 = 0.3, cmath.exp(0.4j), cmath.exp(-1.1j)
        transported = transport_disc(OriginGeodesicParams(C, omega1, omega2,
                                                          BlaschkeMap.constant(-C)))
        for lam in (0.0, 0.5, -0.2 + 0.6j):
            point = transported(lam)
            assert point.z1 == 0.0
            assert point.z2 == pytest.approx(omega2 * (1 - C) * lam, abs=1e-15)
            assert point.z3 == pytest.approx(-omega1 * omega2 * C, abs=1e-15)

    def test_value_at_zero_uses_derivative(self):
        C = 0.4
        phi = random_phi_pinned(np.random.default_rng(11), C, "scaled")
        params = OriginGeodesicParams(C, cmath.exp(0.2j), cmath.exp(-0.7j), phi)
        at_zero = transport_disc(params).value_at_zero
        assert at_zero.z1 == params.omega1 * phi.derivative(0.0) / (1 + C)
        assert at_zero.z2 == 0.0
        assert at_zero.z3 == -params.omega1 * params.omega2 * C

    def test_automorphism_phi_gives_boundary(self):
        # Schwarz-Pick equality |phi'(0)| = 1 - C^2 pushes the transported
        # disc onto the boundary
        C = 0.35
        phi = random_phi_pinned(np.random.default_rng(13), C, "automorphism")
        assert abs(phi.derivative(0.0)) == pytest.approx(1 - C * C, abs=1e-12)
        params = OriginGeodesicParams(C, 1, 1, phi)
        assert transport_disc(params).classify() is TransportClass.BOUNDARY

    def test_strict_contraction_gives_interior(self):
        C = 0.35
        zeta = cmath.exp(0.8j)
        phi = BlaschkeMap(zeta, ((C / 0.9) * zeta.conjugate(),), 0.9)
        params = OriginGeodesicParams(C, 1, 1, phi)
        assert transport_disc(params).classify() is TransportClass.INTERIOR


class TestTransportedExtremal:
    def test_constant_phi_family(self):
        point = transport_disc(OriginGeodesicParams(0.5, 1, 1, BlaschkeMap.constant(-0.5)))(0.3)
        assert point.z1 == 0.0
        assert point.z2 == pytest.approx(0.15)
        assert point.z3 == pytest.approx(-0.5)

    def test_omits_product_slice(self):
        rng = np.random.default_rng(17)
        for kind in ("constant", "scaled", "degree2"):
            C = rng.uniform(0.1, 0.8)
            phi = random_phi_pinned(rng, C, kind)
            disc = transport_disc(OriginGeodesicParams(C, random_unimodular(rng),
                                                       random_unimodular(rng), phi))
            for lam in sample_grid(radii=(0.0, 0.3, 0.6, 0.9), n_angles=8):
                p = disc(lam)
                assert abs(p.z1 * p.z2 - p.z3) > 0.0

    def test_matches_transport_of_origin_family(self):
        # away from 0 the transported disc is the origin disc with z1 and z3
        # divided by lam, bit for bit; at 0 the closed form agrees with the
        # circle mean of the old numeric fill, for single and stacked records
        rng = np.random.default_rng(19)
        lams = sample_grid(radii=(0.4, 0.8), n_angles=8)
        for shape in ((), (6, 1)):
            for kind in PHI_KINDS:
                C = rng.uniform(0.0, 0.95, size=shape or None)
                omega1, omega2 = random_unimodular(rng, (2,) + shape)
                params = OriginGeodesicParams(C, omega1, omega2,
                                              random_phi_pinned(rng, C, kind))
                transported = transport_disc(params)
                value, got = origin_geodesic_disc(params)(lams), transported(lams)
                assert np.array_equal(got.z1, value.z1 / lams)
                assert np.array_equal(got.z2, value.z2)
                assert np.array_equal(got.z3, value.z3 / lams)
                z1, z3 = circle_mean_at_zero(params)
                assert np.max(np.abs(transported.value_at_zero.z1 - z1)) <= 1e-10
                assert np.max(np.abs(transported.value_at_zero.z3 - z3)) <= 1e-10


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
    def test_sandwich_equality_on_product_slice(self):
        from tetrablock.extremals import caratheodory_lower_bound
        w = TetraPoint(0.2, 0.3, 0.06)
        z = TetraPoint(0.4, 0.1, 0.04)
        expected = max(mobius_m(0.2, 0.4), mobius_m(0.3, 0.1))
        upper = disc_search_upper_bound(w, z)
        lower = caratheodory_lower_bound(w, z)
        assert upper.bound.m_scale == pytest.approx(expected, abs=1e-9)
        assert lower.m_scale == pytest.approx(expected, abs=1e-9)


    @staticmethod
    def slice_pairs(seed, offset, n=300):
        """Pairs (a, b, ab + e1), (c, d, cd + e2) with |e1| = |e2| = offset."""
        rng = np.random.default_rng(seed)
        for _ in range(n):
            a, b, c, d = (random_disc_point(rng, 0.8) for _ in range(4))
            e1, e2 = (offset * random_unimodular(rng) for _ in range(2))
            yield TetraPoint(a, b, a * b + e1), TetraPoint(c, d, c * d + e2)

    def test_product_route_declines_pairs_off_the_slice(self):
        # at 0.9e-12 off the slice the projected pair's bound undercut
        # c_lower by up to 4.1e-12 while the route accepted 1e-12
        for w, z in self.slice_pairs(3, 0.9e-12):
            assert disc_search_upper_bound(w, z).family != "product"

    def test_product_route_takes_exact_slice_pairs(self):
        for w, z in self.slice_pairs(5, 0.0):
            result = disc_search_upper_bound(w, z)
            assert result.found and result.family == "product"
            assert caratheodory_lower_bound(w, z).m_scale <= result.bound.m_scale + 1e-14


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
            sol = solve_origin_geodesic_through(z, lam0)
            assert sol is not None, (C, kind)
            target = sol.disc()(lam0)
            assert max(abs(a - b) for a, b in zip(target, z)) < 1e-9

    def test_solve_turns_the_origin_lempert_disc(self):
        # at lam0 = e^{it} |lam| the solver gives the disc of origin_lempert
        # precomposed with a rotation, on sigma-tie and product points too
        rng = np.random.default_rng(43)
        points = [TetraPoint(0.9 * z.z1, 0.9 * z.z2, 0.81 * z.z3)
                  for z in random_interior_points(rng, 30)]
        for _ in range(10):
            a, c = random_disc_point(rng, 0.7), random_disc_point(rng, 0.3)
            b = random_disc_point(rng)
            points += [TetraPoint(a, a, c), TetraPoint(a, b, a * b)]
        checked = 0
        for z in points:
            if not is_interior(z):
                continue
            sol = origin_lempert(z)
            lam0 = random_unimodular(rng) * abs(sol.lam0)
            turned = solve_origin_geodesic_through(z, lam0)
            assert turned is not None
            assert turned.params.C == sol.params.C
            assert turned.swapped == sol.swapped
            assert turned.params.phi.degree == sol.params.phi.degree
            assert turned.residual < 1e-12
            assert max(abs(a - b) for a, b in zip(turned.disc()(lam0), z)) < 1e-12
            rho = sol.lam0 / lam0
            rho /= abs(rho)
            for lam in (0.3, -0.2 + 0.5j):
                assert max(abs(a - b) for a, b in
                           zip(turned.disc()(lam), sol.disc()(rho * lam))) < 1e-14
            checked += 1
        assert checked >= 40

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
            result = disc_search_upper_bound(*ends)
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
            result = disc_search_upper_bound(w, z, budget=budget)
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
        result = disc_search_upper_bound(w, z, budget=300)
        assert result.found and result.family == "general-disc"
        assert result.starts >= 1 and 0 < result.evaluations <= 300
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

    @staticmethod
    def phi_vanishing_pair():
        """phi vanishes at w, so w3 = 0, and psi at z, so z2 = z3 = 0; a pair
        with z2 = z3 = 0 at both ends lies in the product slice, and the
        product route takes it first."""
        p = GeneralDiscParams(0.4, cmath.exp(0.7j), 1, disc_automorphism(0.3),
                              BlaschkeMap(1, (-0.5j,), 0.8))
        w, z = eval_general_disc(p, 0.3), eval_general_disc(p, -0.5j)
        assert w.z3 == 0 and w.z2 != 0 and z.z2 == z.z3 == 0
        return w, z

    def test_start_where_phi_vanishes(self):
        # the two members of w and the start of z, which has no members;
        # w's start would repeat one of its members.  The (C, omega1) of the
        # disc's second member lies outside [0, 1), so it builds no disc
        w, z = self.phi_vanishing_pair()
        result = disc_search_upper_bound(w, z)
        assert result.found and result.family == "general-disc"
        assert (result.starts, result.evaluations) == (3, 2)
        assert abs(result.bound.m_scale - mobius_m(0.3, -0.5j)) < 1e-12

    def test_start_where_phi_vanishes_alone_finds_the_bound(self, monkeypatch):
        # phi and psi vanish at z, so z = (omega1 C/(1 + C), 0, 0), and w is
        # off the product slice: z has no members, and its start is the
        # disc's (C, omega1)
        p = GeneralDiscParams(0.4, cmath.exp(0.7j), 1, BlaschkeMap(1j, (-0.5j,), 0.9),
                              BlaschkeMap(1, (-0.5j,), 0.8))
        w, z = eval_general_disc(p, 0.3), eval_general_disc(p, -0.5j)
        assert z.z2 == z.z3 == 0 and abs(w.z1 * w.z2 - w.z3) > 0.1
        full = disc_search_upper_bound(w, z)
        monkeypatch.setattr(geodesics, "_member_roots", lambda p: [])
        result = disc_search_upper_bound(w, z)
        assert result.found and result.family == "general-disc"
        assert (result.starts, result.evaluations) == (1, 1)
        assert abs(result.bound.m_scale - full.bound.m_scale) < 1e-12
        assert result.bound.m_scale <= mobius_m(0.3, -0.5j) + 1e-12

    def test_candidate_with_phi_outside_at_an_endpoint(self):
        # the candidates of z put phi at -(omega1 - z1)/omega1 there, where
        # 1 + C phi vanishes: the candidate is dropped before psi is formed,
        # which divided 0 by 0 and warned
        c = 0.2685207162460927 + 0.21796437345909297j
        w, z = TetraPoint(0, 0, c), TetraPoint(0.2520728284575709 - 0.09951278528655141j,
                                               0, c + 1e-3)
        result = disc_search_upper_bound(w, z)
        assert not result.found
        assert result.reason == "general-disc: 2 starts, 0 evaluations, best residual inf"

    def test_closed_routes_give_their_reason(self):
        result = disc_search_upper_bound(TetraPoint(0, 0, -0.5), TetraPoint(0, 0.05, -0.5))
        assert result.reason == "axis-pair: closed form"
        assert (result.starts, result.evaluations) == (0, 0)
