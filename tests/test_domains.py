import cmath
import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tetrablock.domains import (G2Point, Location, TetraPoint, e_value_raw,
                                g2_membership, psi_sup, rho_functional,
                                stable_quadratic_roots, tetra_e_value,
                                tetra_membership)
from tetrablock.errors import DomainError
from tetrablock.extremals import f_omega_automorphism, sigma
from tetrablock.verify import random_interior_points

disc_points = st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                                 allow_infinity=False)

EPS = sys.float_info.epsilon


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

    @pytest.mark.parametrize("z", [(0, 0, 1e155), (0, 0, 1e200j), (0.5, 0, 1e155 + 1e155j)])
    def test_huge_points_give_inf(self, z):
        # |z3|^2 beyond the float range is inf, not an OverflowError
        assert tetra_e_value(z) == math.inf
        assert tetra_membership(z).location is Location.EXTERIOR

    @pytest.mark.parametrize("z", [(1e308, 1e308, 0), (1.7e308, 1.7e308, 1.7e308),
                                   (1.7e308j, -1.7e308, 1.7e308 + 1.7e308j)])
    def test_sums_beyond_the_float_range_give_inf_silently(self, z):
        # a scalar point stays in Python arithmetic: no numpy-scalar warning
        # and no OverflowError from abs of a huge complex
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tetra_e_value(z) == math.inf
            assert tetra_membership(z).location is Location.EXTERIOR

    def test_square_term_is_a_correctly_rounded_product(self):
        # some C libraries give 2.7394895929391466e-06 ** 2 one ulp off
        r = 2.7394895929391466e-06
        assert tetra_e_value((0, 0, r)) == r * r


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
        point = G2Point(lam + mu, lam * mu)
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

    @given(disc_points, disc_points)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_product_points(self, a, b):
        # an underflowed product is no product point: (a, a, 0) has rho 2|a|
        assume(a == 0 or b == 0 or abs(a * b) >= 1e-300)
        m = max(abs(a), abs(b))
        assert abs(rho_functional((a, b, a * b)) - m) <= 1e-14 * m

    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (0.5j, 0.5), (0.3, 0.3 + 1e-9),
                                      (0.0, 0.7)])
    def test_product_point_edge_cases(self, a, b):
        # equal or nearly equal moduli, where the defining functional is
        # flat to third order toward the boundary, and a factor 0
        m = max(abs(a), abs(b))
        assert abs(rho_functional((a, b, a * b)) - m) <= 1e-14 * m

    @pytest.mark.parametrize("t", [1e-300, -3e-200 + 1e-200j, 1e-20j, 0.25, -0.999,
                                   1e150, 1e300])
    def test_first_axis_at_every_scale(self, t):
        assert rho_functional((t, 0, 0)) == pytest.approx(abs(t), rel=1e-14)

    @pytest.mark.parametrize("lam", [1e-6, 1e-150, -1e-6j])
    def test_quasi_homogeneity_at_small_scale(self, lam):
        for z in random_interior_points(np.random.default_rng(31), 100):
            scaled = (lam * z.z1, lam * z.z2, lam * lam * z.z3)
            assert rho_functional(scaled) == pytest.approx(
                abs(lam) * rho_functional(z), rel=1e-14)

    def test_interior_iff_below_one_on_seeded_points(self):
        rng = np.random.default_rng(32)
        points = random_interior_points(rng, 500)
        # the same points pushed outward, most of them out of the domain
        points += [TetraPoint(1.5 * z.z1, 1.5 * z.z2, 2.25 * z.z3) for z in points]
        for z in points:
            e = tetra_e_value(z)
            if abs(e - 1.0) < 1e-9:
                continue
            assert (rho_functional(z) < 1.0) == (e < 1.0)

    @pytest.mark.parametrize("z", [(1e300, 0, 0), (0, 0, 1e308), (1e308 + 1e308j, 0, 0),
                                   (1.7e308, -1.7e308, 1.7e308j),
                                   (1e308 + 1e308j, 1e308 - 1e308j, 0)])
    def test_huge_points_never_overflow(self, z):
        try:
            value = rho_functional(z)
        except DomainError:
            return
        assert math.isfinite(value) and value > 0.0

    @pytest.mark.parametrize("z", [(math.inf, 0, 0), (0, math.nan, 0),
                                   (0, 0, complex(0, -math.inf))])
    def test_non_finite_points_rejected(self, z):
        with pytest.raises(DomainError):
            rho_functional(z)


def bisection_gauge(z, tol: float = 0.0) -> float:
    """The gauge by bisection, as ``rho_functional`` computed it before its
    closed form: the point is scaled by a power of two, the criterion of
    Abouhajar, White and Young for the scaled point,
    |z2 D + conj(z1) q| + |q| t < D t with D = t^2 - |z1|^2, q = z1 z2 - z3,
    narrows the bracket [m, 3m] to a relative width ``tol``, and the midpoint
    is returned.  At ``tol`` = 0 it runs to adjacent floats."""
    parts = [x for c in TetraPoint.of(z) for x in (c.real, c.imag)]
    size = max(max(abs(x) for x in parts[:4]), math.sqrt(max(abs(x) for x in parts[4:])))
    if size == 0.0:
        return 0.0
    e = math.frexp(size)[1]
    z1, z2, z3 = (complex(math.ldexp(parts[k], -n * e), math.ldexp(parts[k + 1], -n * e))
                  for k, n in ((0, 1), (2, 1), (4, 2)))
    r1, q = abs(z1), z1 * z2 - z3
    shift, c = z1.conjugate() * q, abs(q)
    lo = max(r1, abs(z2), math.sqrt(abs(z3)))
    hi = 3.0 * lo
    while hi - lo > tol * hi:
        t = 0.5 * (lo + hi)
        if t <= lo or t >= hi:
            break
        d = (t - r1) * (t + r1)
        if abs(z2 * d + shift) + c * t < d * t:
            hi = t
        else:
            lo = t
    return math.ldexp(0.5 * (lo + hi), e)


def eps_apart(a: float, b: float) -> float:
    """|a - b| in units of eps |b| (0 when both vanish)."""
    return abs(a - b) / (EPS * abs(b)) if b else abs(a) / EPS


# components 0 or of size at least 1e-150: a rotated or scaled component near
# the subnormal range keeps only a few bits
gauge_parts = st.floats(-0.9, 0.9).filter(lambda x: x == 0.0 or abs(x) >= 1e-150)
gauge_points = st.builds(TetraPoint, *(st.builds(complex, gauge_parts, gauge_parts)
                                       for _ in range(3)))


class TestGaugeProperties:
    """The closed-form gauge against the bisection and the theory's
    invariants, each to 4 eps relative."""

    @given(gauge_points, st.integers(-150, 150))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_closed_form_matches_bisection(self, z, k):
        s = 10.0 ** k
        z = TetraPoint(s * z.z1, s * z.z2, s * s * z.z3)
        assert eps_apart(rho_functional(z), bisection_gauge(z)) <= 4.0

    @given(gauge_points, st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_automorphism_invariance(self, z, theta):
        rho = rho_functional(z)
        assert eps_apart(rho_functional(sigma(z)), rho) <= 4.0
        rotated = f_omega_automorphism(cmath.exp(1j * theta), z)
        assert eps_apart(rho_functional(rotated), rho) <= 4.0

    @given(gauge_points, st.floats(0.05, 1.0), st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_quasi_homogeneity_for_complex_lambda(self, z, r, theta):
        lam = cmath.rect(r, theta)
        scaled = TetraPoint(lam * z.z1, lam * z.z2, lam * lam * z.z3)
        assert eps_apart(rho_functional(scaled), abs(lam) * rho_functional(z)) <= 4.0

    @given(st.lists(gauge_points, min_size=1, max_size=20), st.integers(-150, 150))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_block_matches_points(self, points, k):
        s = 10.0 ** k
        points = [TetraPoint(s * z.z1, s * z.z2, s * s * z.z3) for z in points]
        block = rho_functional(TetraPoint(*(np.array(c) for c in zip(*points))))
        assert block.shape == (len(points),)
        for value, z in zip(block, points):
            assert eps_apart(float(value), rho_functional(z)) <= 4.0

    @given(st.lists(st.tuples(disc_points, disc_points, disc_points), min_size=1,
                    max_size=20), st.floats(0.5, 1.5))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_below_one_iff_interior(self, coords, stretch):
        points = [TetraPoint(stretch * a, stretch * b, stretch * stretch * c)
                  for a, b, c in coords]
        block = rho_functional(TetraPoint(*(np.array(c) for c in zip(*points))))
        for value, z in zip(block, points):
            e = tetra_e_value(z)
            if abs(e - 1.0) < 1e-9:
                continue
            assert (rho_functional(z) < 1.0) == (e < 1.0) == (value < 1.0)

    def test_array_point_shapes(self):
        z1 = np.array([[0.1, 0.2], [0.3, 0.4]])
        block = rho_functional(TetraPoint(z1, 0.5, 0))
        assert block.shape == (2, 2)
        assert block[1, 0] == pytest.approx(rho_functional((0.3, 0.5, 0)), rel=4 * EPS)
        empty = rho_functional(TetraPoint(np.array([]), np.array([]), np.array([])))
        assert empty.shape == (0,)

    def test_array_point_scales_sample_by_sample(self):
        block = rho_functional(TetraPoint(np.array([1e300, 0.0, 1e-300, 0.0]), 0,
                                          np.array([1e308j, 0.0, 1e-310, 1e-300])))
        assert block[1] == 0.0
        for value, expected in zip(block[[0, 2, 3]], (1e300, 1e-155, 1e-150)):
            assert value == pytest.approx(expected, rel=4 * EPS)

    @pytest.mark.parametrize("z", [(np.array([0.5, math.inf]), 0, 0),
                                   (0, np.array([math.nan]), 0),
                                   (0, 0, np.array([0.1, complex(0, -math.inf)]))])
    def test_non_finite_array_points_rejected(self, z):
        with pytest.raises(DomainError):
            rho_functional(TetraPoint(*z))

    def test_array_gauge_beyond_the_float_range_raises(self):
        with pytest.raises(DomainError):
            rho_functional(TetraPoint(np.array([0.5, 1.7e308 + 1.7e308j]),
                                      np.array([0.0, 1.7e308]), 0))


class TestArraysBeyondTheFloatRange:
    """Blocks whose values leave the float range give inf silently, as their
    scalar points do."""

    def test_psi_sup_block(self):
        z = TetraPoint(np.array([0.5, 0.5]), np.array([0j, 1.7e308]), np.array([1.7e308, 1.7e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(psi_sup(z)) == [math.inf, math.inf]
            assert psi_sup(TetraPoint(0.5, 0, 1.7e308)) == math.inf

    def test_e_value_block(self):
        big = np.array([1e308, 1.7e308j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(e_value_raw(big, big, big)) == [math.inf, math.inf]
            assert list(e_value_raw(np.zeros(2), 0j, big)) == [math.inf, math.inf]


class TestPointRecords:
    """The hand-written constructors keep the generated dataclass behaviour."""

    def test_equality_converts_coordinates(self):
        assert TetraPoint(0, 0.5, -1) == TetraPoint(0j, 0.5 + 0j, -1.0)
        assert TetraPoint(0, 0.5, -1) != TetraPoint(0, 0.5, 1)
        assert G2Point(1, 0.25) == G2Point(1 + 0j, 0.25)
        assert type(TetraPoint(0.1, 0.2, 0.3).z1) is complex

    def test_hash_follows_equality(self):
        assert hash(TetraPoint(0, 0.5, -1)) == hash(TetraPoint(0j, 0.5 + 0j, -1.0))
        assert len({TetraPoint(0, 0.5, -1), TetraPoint(0.0, 0.5, -1.0),
                    TetraPoint(0, 0.5, 1)}) == 2
        assert hash(G2Point(1, 0.25)) == hash(G2Point(1.0, 0.25 + 0j))

    def test_replace_converts_the_new_field(self):
        z = dataclasses.replace(TetraPoint(0.1, 0.2, 0.3), z2=1)
        assert z == TetraPoint(0.1, 1, 0.3) and type(z.z2) is complex
        w = dataclasses.replace(G2Point(0.5, 0.1), p=np.array([0.1, 0.2]))
        assert w.s == 0.5 and w.p.dtype == complex

    def test_points_stay_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            TetraPoint(0, 0, 0).z1 = 1
