import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrablock.domains import (G2Point, Location, TetraPoint, g2_membership,
                                psi_sup, rho_functional,
                                stable_quadratic_roots, tetra_e_value,
                                tetra_membership)
from tetrablock.errors import DomainError
from tetrablock.extremals import f_omega_automorphism, sigma

disc_points = st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                                 allow_infinity=False)


class TestEValue:
    def test_origin(self):
        assert tetra_e_value((0, 0, 0)) == 0.0

    def test_hand_computed(self):
        # |0 - 0.3*0.5| + |0.3 - 0| + 0.25 = 0.15 + 0.3 + 0.25
        assert tetra_e_value((0, 0.3, 0.5)) == pytest.approx(0.7, abs=1e-15)

    def test_boundary_disc_point(self):
        # the in-boundary family with constant phi = 0.2, C = 0.5:
        # e = C(1-|phi|^2)/(1+C) + (1-|phi|^2)/(1+C) + |phi|^2 = 1 exactly
        z = TetraPoint(0.7 / 1.5, 1.1 / 1.5, 0.2)
        assert tetra_e_value(z) == pytest.approx(1.0, abs=1e-15)

    def test_swap_invariance_exact(self):
        z = TetraPoint(0.31 - 0.12j, -0.44 + 0.05j, 0.21 + 0.33j)
        assert tetra_e_value(sigma(z)) == tetra_e_value(z)

    @given(disc_points, disc_points, disc_points,
           st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=200)
    def test_rotation_invariance(self, z1, z2, z3, theta):
        z = TetraPoint(z1, z2, z3)
        rotated = f_omega_automorphism(cmath.exp(1j * theta), z)
        assert tetra_e_value(rotated) == pytest.approx(tetra_e_value(z),
                                                       rel=1e-14, abs=1e-14)


class TestMembership:
    def test_origin_interior(self):
        assert tetra_membership((0, 0, 0)).location is Location.INTERIOR

    def test_axis_slice_characterization(self):
        # (0, z, w) is interior exactly when |z| + |w| < 1
        rng = np.random.default_rng(3)
        for _ in range(200):
            z = complex(*rng.uniform(-0.8, 0.8, 2))
            w = complex(*rng.uniform(-0.8, 0.8, 2))
            report = tetra_membership((0, z, w))
            expected = abs(z) + abs(w) < 1
            assert (report.location is Location.INTERIOR) == expected

    def test_boundary_point(self):
        report = tetra_membership((1, 0, 0))
        assert report.location is Location.BOUNDARY
        assert report.e_value == 1.0

    def test_tol_must_be_positive(self):
        with pytest.raises(DomainError):
            tetra_membership((0, 0, 0), tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_tol_must_be_finite(self, tol):
        with pytest.raises(DomainError):
            tetra_membership((0, 0.3, 0.5), tol=tol)
        with pytest.raises(DomainError):
            g2_membership((0, 0), tol=tol)

    def test_interior_coordinates_bounded(self):
        # every interior point has all |z_j| < 1
        rng = np.random.default_rng(5)
        found = 0
        while found < 300:
            z = TetraPoint(*(complex(*rng.uniform(-1, 1, 2)) for _ in range(3)))
            if tetra_membership(z).location is Location.INTERIOR:
                found += 1
                assert max(abs(z.z1), abs(z.z2), abs(z.z3)) < 1.0


class TestPsiSup:
    def test_constant_quotient_when_z1_z3_vanish(self):
        assert psi_sup((0, 0.3, 0)) == pytest.approx(0.3, abs=1e-13)
        assert psi_sup((0, 0, 0)) == 0.0

    def test_product_point_constant_quotient(self):
        # (0.25 eta - 0.5) = 0.5 (0.5 eta - 1): the quotient is 0.5 for all eta
        assert psi_sup((0.5, 0.5, 0.25)) == pytest.approx(0.5, abs=1e-13)
        scaled = (0.5 * (1 - 1e-6), 0.5 * (1 - 1e-6), 0.25 * (1 - 1e-6))
        assert psi_sup(scaled) < 1.0
        assert tetra_e_value((0.5, 0.5, 0.25)) == pytest.approx(0.8125, abs=1e-15)

    def test_against_dense_grid_oracle(self):
        rng = np.random.default_rng(9)
        thetas = np.linspace(0.0, 2.0 * math.pi, 20001)
        for _ in range(25):
            z = TetraPoint(*(0.8 * complex(*rng.uniform(-0.7, 0.7, 2))
                             for _ in range(3)))
            eta = np.exp(1j * thetas)
            oracle = float(np.max(np.abs((eta * z.z3 - z.z2) / (eta * z.z1 - 1.0))))
            value = psi_sup(z)
            # the refined search must dominate the dense grid and stay within
            # its discretization error
            assert value >= oracle - 1e-12
            assert value == pytest.approx(oracle, abs=1e-5)

    def test_near_unit_z1_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(17)
        for _ in range(200):
            z1 = rng.uniform(0.99, 0.9999) * cmath.exp(2j * math.pi * rng.uniform())
            z2, z3 = (complex(*rng.uniform(-1.0, 1.0, 2)) / math.sqrt(2.0)
                      for _ in range(2))
            with mpmath.workdps(50):
                m1, m2, m3 = (mpmath.mpc(c) for c in (z1, z2, z3))
                exact = ((abs(m2 - mpmath.conj(m1) * m3) + abs(m1 * m2 - m3))
                         / (1 - abs(m1) ** 2))
            value = psi_sup(TetraPoint(z1, z2, z3))
            assert abs(value - exact) <= 1e-12 * exact

    def test_requires_z1_inside(self):
        with pytest.raises(DomainError):
            psi_sup((1.0, 0, 0))

    def test_classification_agreement_sample(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            z = TetraPoint(*((complex(*rng.uniform(-1, 1, 2))) / math.sqrt(2)
                             for _ in range(3)))
            e = tetra_e_value(z)
            if abs(e - 1.0) <= 1e-6:
                continue
            assert (psi_sup(z) < 1.0) == (e < 1.0)


class TestG2:
    def test_origin(self):
        assert g2_membership((0, 0)).location is Location.INTERIOR

    def test_double_root_boundary(self):
        report = g2_membership((2, 1))
        assert report.location is Location.BOUNDARY
        assert report.max_root_modulus == pytest.approx(1.0, abs=1e-9)

    def test_factored_quadratic(self):
        report = g2_membership((-0.8, 0.16))
        assert report.location is Location.INTERIOR
        for root in report.roots:
            assert root == pytest.approx(-0.4, abs=1e-7)

    def test_stable_roots_near_cancellation(self):
        # t^2 - (1 + 1e-12) t + 1e-12: roots 1 and 1e-12
        r_big, r_small = stable_quadratic_roots(1.0 + 1e-12, 1e-12)
        assert r_big == pytest.approx(1.0, rel=1e-12)
        assert r_small == pytest.approx(1e-12, rel=1e-6)

    @given(disc_points, disc_points)
    @settings(max_examples=300)
    def test_round_trip_from_roots(self, lam, mu):
        point = G2Point.from_roots(lam, mu)
        report = g2_membership(point)
        assert report.location is Location.INTERIOR
        r1, r2 = report.roots
        direct = abs(r1 - lam) + abs(r2 - mu)
        crossed = abs(r1 - mu) + abs(r2 - lam)
        assert min(direct, crossed) < 2e-7


class TestRho:
    def test_axis_value(self):
        assert rho_functional((0, 0.5, 0)) == pytest.approx(0.5, abs=1e-10)

    def test_zero(self):
        assert rho_functional((0, 0, 0)) == 0.0

    def test_quasi_homogeneity_example(self):
        z = (0.2, 0.1, 0.05)
        lam = 0.3
        scaled = (lam * z[0], lam * z[1], lam * lam * z[2])
        assert rho_functional(scaled) == pytest.approx(lam * rho_functional(z),
                                                       abs=1e-8)

    def test_interior_iff_below_one(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            z = TetraPoint(*(complex(*rng.uniform(-0.8, 0.8, 2)) for _ in range(3)))
            e = tetra_e_value(z)
            if abs(e - 1.0) < 1e-6:
                continue
            assert (rho_functional(z) < 1.0) == (e < 1.0)
