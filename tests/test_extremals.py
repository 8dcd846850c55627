import cmath
import math

import numpy as np
import pytest

from tetrablock.domains import TetraPoint, is_interior
from tetrablock.errors import BranchError, DomainError, PoleError
from tetrablock.extremals import (ExtremalFamily, ExtremalFamilyId, G2FMap,
                                  MagicFMap, PsiOmegaMap,
                                  caratheodory_lower_bound,
                                  f_omega_automorphism, g2_f, magic_f, p_e,
                                  psi_eta, sigma)
from tetrablock.geodesics import OriginGeodesicParams, eval_origin_geodesic
from tetrablock.hyperbolic import BlaschkeMap, mobius_m
from tetrablock.necessary import numeric_gradient
from tetrablock.verify import random_disc_point, random_interior_points


class TestPsiEta:
    def test_eta_zero_gives_second_coordinate(self):
        assert psi_eta(0.0, (0.1, 0.2, 0.3)) == pytest.approx(0.2)

    def test_axis_point(self):
        assert psi_eta(1.0, (0, 0, 0.4)) == pytest.approx(-0.4)

    def test_recovers_disc_parameter_on_geodesics(self):
        # composing with the family member conj(omega1) unwinds the disc:
        # |Psi_{conj(w1)}(f(lam))| = |lam| for the constant-phi geodesic
        C = 0.5
        params = OriginGeodesicParams(C, cmath.exp(0.3j), cmath.exp(-0.8j),
                                      BlaschkeMap.constant(-C))
        for lam in (0.5, 0.2 - 0.3j):
            value = psi_eta(params.omega1.conjugate(),
                            eval_origin_geodesic(params, lam))
            assert value == pytest.approx(params.omega2 * lam, abs=1e-14)

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            psi_eta(1.0, TetraPoint(1.0, 0.0, 0.0))

    def test_eta_outside_closed_disc_rejected(self):
        with pytest.raises(DomainError):
            psi_eta(1.5, (0, 0, 0))

    def test_interior_values_inside_disc(self):
        rng = np.random.default_rng(2)
        for z in random_interior_points(rng, 200):
            assert abs(psi_eta(cmath.exp(2j * math.pi * rng.uniform()), z)) < 1.0


class TestAutomorphisms:
    def test_sigma_swap_and_involution(self):
        z = TetraPoint(1 + 2j, 3, 4j)
        assert sigma(z) == TetraPoint(3, 1 + 2j, 4j)
        assert sigma(sigma(z)) == z

    def test_f_omega_identity(self):
        z = TetraPoint(0.1, 0.2, 0.05)
        assert f_omega_automorphism(1.0, z) == z

    def test_f_omega_rotation(self):
        z = f_omega_automorphism(-1.0, TetraPoint(0.1, 0.2, 0.05))
        assert z == TetraPoint(-0.1, 0.2, -0.05)

    def test_f_omega_composition(self):
        z = TetraPoint(0.1 - 0.2j, 0.2, 0.05j)
        w1, w2 = cmath.exp(0.4j), cmath.exp(-1.2j)
        once = f_omega_automorphism(w1, f_omega_automorphism(w2, z))
        combined = f_omega_automorphism(w1 * w2, z)
        assert once.z1 == pytest.approx(combined.z1, abs=1e-15)
        assert once.z3 == pytest.approx(combined.z3, abs=1e-15)

    def test_f_omega_rejects_non_unimodular(self):
        with pytest.raises(DomainError):
            f_omega_automorphism(0.5, TetraPoint(0, 0, 0))


class TestMagicF:
    def test_unit_denominator(self):
        assert magic_f((0, 0.7, 0)) == pytest.approx(0.7)

    def test_product_point(self):
        # 1 + 0.25 - 0.25 = 1
        assert magic_f((0.5, 0.5, 0.25)) == pytest.approx(0.5)

    def test_extremal_family_value(self):
        lam, C = 0.37, 0.42
        value = magic_f((0, lam * (1 - C), -C))
        assert abs(value) == pytest.approx(lam * math.sqrt(1 - C), abs=1e-15)

    def test_branch_guard(self):
        with pytest.raises(BranchError):
            magic_f((0.9, 0.9, -0.9))

    def test_maps_interior_into_open_disc(self):
        rng = np.random.default_rng(4)
        for z in random_interior_points(rng, 10000):
            assert abs(z.z1 * z.z2 - z.z3) < 1.0  # branch-safety certificate
            assert abs(magic_f(z)) < 1.0

    def test_gradient_matches_numeric(self):
        fmap = MagicFMap()
        rng = np.random.default_rng(6)
        for z in random_interior_points(rng, 50):
            analytic = fmap.gradient(z)
            numeric = numeric_gradient(fmap, z.as_tuple())
            for a, b in zip(analytic, numeric):
                assert a == pytest.approx(b, abs=1e-8)


CLOSED_FORM_PAIRS = [
    # (C, lam) -> p_e m-scale |lam| / (1 + C - C |lam|), hand evaluated
    (0.5, 0.5, 0.4),
    (0.5, 0.1, 0.1 / 1.45),
    (0.3, 0.25, 0.25 / (1.3 - 0.075)),
]


class TestPE:
    def test_coincident_points(self):
        z = TetraPoint(0.1, 0.05, 0.02)
        assert p_e(z, z).m_scale == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("C, lam, expected", CLOSED_FORM_PAIRS)
    def test_closed_form_family(self, C, lam, expected):
        w = TetraPoint(0, 0, -C)
        z = TetraPoint(0, lam * (1 - C), -C)
        assert p_e(w, z).m_scale == pytest.approx(expected, abs=1e-8)

    def test_coincident_points_exact_zero(self):
        for z in random_interior_points(np.random.default_rng(21), 50):
            assert p_e(z, z).m_scale == 0.0

    def test_product_points(self):
        # Psi_eta(a, b, a b) = b for every eta, so only the two coordinate
        # distances remain
        rng = np.random.default_rng(22)
        for _ in range(100):
            a, b, c, d = (random_disc_point(rng) for _ in range(4))
            value = p_e(TetraPoint(a, b, a * b), TetraPoint(c, d, c * d)).m_scale
            assert value == pytest.approx(max(mobius_m(b, d), mobius_m(a, c)),
                                          abs=2e-15)

    def test_axis_pairs(self):
        # Psi_eta(0, b, c) = b - eta c: the plain family gives
        # |b| / (1 - |c|^2 - |b| |c|), and the swapped one no more
        rng = np.random.default_rng(23)
        for _ in range(100):
            c = random_disc_point(rng, 0.6)
            b = random_disc_point(rng, 0.95 - abs(c))
            value = p_e(TetraPoint(0, 0, c), TetraPoint(0, b, c)).m_scale
            expected = abs(b) / (1.0 - abs(c) ** 2 - abs(b) * abs(c))
            assert value == pytest.approx(expected, rel=1e-13)

    def test_separation_pair_exact(self):
        value = p_e(TetraPoint(0, 0, -0.5), TetraPoint(0, 0.05, -0.5)).m_scale
        assert value == pytest.approx(0.1 / 1.45, abs=1e-15)

    def test_dominates_sampled_maximum(self):
        thetas = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        eta = np.exp(1j * thetas)
        rng = np.random.default_rng(24)
        points = random_interior_points(rng, 200)
        pairs = list(zip(points[:100], points[100:]))
        # close pairs, where the distance varies little with eta
        pairs += [(w, TetraPoint(*(c + 1e-4 * random_disc_point(rng) for c in w)))
                  for w in points[:50]]
        for w, z in pairs:
            if not (is_interior(w) and is_interior(z)):
                continue
            sampled = max(float(np.max(mobius_m(psi_eta(eta, a), psi_eta(eta, b))))
                          for a, b in ((w, z), (sigma(w), sigma(z))))
            assert p_e(w, z).m_scale >= sampled - 1e-15

    def test_rejects_exterior(self):
        with pytest.raises(DomainError):
            p_e(TetraPoint(0, 0, 0), TetraPoint(2, 0, 0))

    def test_invariance_under_shared_symmetries(self):
        rng = np.random.default_rng(8)
        points = random_interior_points(rng, 8)
        for w, z in zip(points[:4], points[4:]):
            base = p_e(w, z).m_scale
            assert p_e(sigma(w), sigma(z)).m_scale == pytest.approx(base, abs=1e-10)
            omega = cmath.exp(2j * math.pi * rng.uniform())
            rotated = p_e(f_omega_automorphism(omega, w),
                          f_omega_automorphism(omega, z)).m_scale
            assert rotated == pytest.approx(base, abs=1e-10)


class TestCaratheodoryLowerBound:
    def test_coincident(self):
        z = TetraPoint(0.1, 0.05, 0.02)
        assert caratheodory_lower_bound(z, z).m_scale == pytest.approx(0.0, abs=1e-15)

    def test_separation_pair(self):
        w = TetraPoint(0, 0, -0.5)
        z = TetraPoint(0, 0.05, -0.5)
        lower = caratheodory_lower_bound(w, z).m_scale
        assert lower == pytest.approx(0.1 * math.sqrt(0.5), abs=1e-6)
        assert lower > p_e(w, z).m_scale

    def test_dominates_p_e(self):
        rng = np.random.default_rng(10)
        points = random_interior_points(rng, 10)
        for w, z in zip(points[:5], points[5:]):
            assert (p_e(w, z).m_scale
                    <= caratheodory_lower_bound(w, z).m_scale + 1e-12)

    def test_empty_families_rejected(self):
        z = TetraPoint(0, 0, 0)
        with pytest.raises(DomainError):
            caratheodory_lower_bound(z, z, families=[])

    def test_pinned_member(self):
        w = TetraPoint(0, 0.1, 0)
        z = TetraPoint(0, -0.2, 0)
        pinned = ExtremalFamilyId(ExtremalFamily.PSI_OMEGA, parameter=1.0)
        value = caratheodory_lower_bound(w, z, [pinned]).m_scale
        assert value == pytest.approx(mobius_m(psi_eta(1, w), psi_eta(1, z)),
                                      abs=1e-15)

    def test_g2_family_rejected_for_tetra_points(self):
        z = TetraPoint(0, 0.1, 0)
        with pytest.raises(DomainError):
            caratheodory_lower_bound(z, z, [ExtremalFamily.G2_F_OMEGA])


class TestG2F:
    def test_origin(self):
        assert g2_f(1.0, (0, 0)) == 0.0

    def test_right_inverse_of_symmetrized_diagonal(self):
        # (2 w lam^2 + 2 lam) / (2 + 2 w lam) = lam
        for omega in (1.0, cmath.exp(0.9j)):
            for lam in (0.4, -0.2 + 0.3j):
                value = g2_f(omega, (-2 * lam, lam * lam))
                assert value == pytest.approx(lam, abs=1e-14)

    def test_substitution(self):
        assert g2_f(1.0, (1.0, 0.25)) == pytest.approx(-0.5)

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            g2_f(1.0, (2.0, 0.0))

    def test_gradient_matches_numeric(self):
        fmap = G2FMap(cmath.exp(0.3j))
        rng = np.random.default_rng(12)
        for _ in range(50):
            lam = complex(*rng.uniform(-0.5, 0.5, 2))
            mu = complex(*rng.uniform(-0.5, 0.5, 2))
            point = (lam + mu, lam * mu)
            analytic = fmap.gradient(point)
            numeric = numeric_gradient(fmap, point)
            for a, b in zip(analytic, numeric):
                assert a == pytest.approx(b, abs=1e-8)


class TestPsiOmegaMapGradient:
    def test_hand_computed_partials_of_eta_one(self):
        fmap = PsiOmegaMap(1.0)
        z1, z2, z3 = 0.2 + 0.1j, -0.15 + 0.2j, 0.1 - 0.05j
        d1, d2, d3 = fmap.gradient((z1, z2, z3))
        assert d1 == pytest.approx((z2 - z3) / (z1 - 1) ** 2, abs=1e-15)
        assert d2 == pytest.approx(-1 / (z1 - 1), abs=1e-15)
        assert d3 == pytest.approx(1 / (z1 - 1), abs=1e-15)

    def test_numeric_agreement_on_interior_points(self):
        rng = np.random.default_rng(14)
        fmap = PsiOmegaMap(cmath.exp(1.7j), swap_first=True,
                           factor=cmath.exp(-0.4j))
        for z in random_interior_points(rng, 100):
            analytic = fmap.gradient(z)
            numeric = numeric_gradient(fmap, z.as_tuple())
            for a, b in zip(analytic, numeric):
                assert a == pytest.approx(b, abs=1e-8)
