import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrablock.errors import DomainError
from tetrablock.geodesics import GeneralDiscParams, OriginGeodesicParams, boundary_disc
from tetrablock.hyperbolic import (BlaschkeMap, HyperbolicDistance, largest,
                                   least, mobius_m, require_closed_disc_point,
                                   require_disc_point, require_unimodular)

# strategies for points of the open disc (kept away from the boundary so the
# quotient stays well conditioned)
disc_points = st.complex_numbers(max_magnitude=0.95, allow_nan=False,
                                 allow_infinity=False)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)


class TestReductions:
    def test_largest_of_booleans(self):
        # the -inf start of a float maximum must not be cast to True
        assert not largest(np.array([[False]]))
        assert largest(np.array([[False], [True]]))
        assert not largest(np.zeros((0, 1), dtype=bool))
        assert not least(np.array([[True], [False]]))


class TestMobiusDistance:
    def test_identity_case(self):
        d = HyperbolicDistance.from_m(mobius_m(0.0, 0.0))
        assert d.m_scale == 0.0 and d.p_scale == 0.0

    def test_distance_from_origin_is_modulus(self):
        d = HyperbolicDistance.from_m(mobius_m(0.0, 0.5))
        assert d.m_scale == 0.5
        assert d.p_scale == pytest.approx(math.atanh(0.5), abs=1e-15)

    def test_hand_computed_quotient(self):
        # |(0.3 - (-0.3)) / (1 - 0.3*(-0.3))| = 0.6 / 1.09
        assert mobius_m(0.3, -0.3) == pytest.approx(0.6 / 1.09, abs=1e-15)

    def test_symmetry(self):
        a, b = 0.3 + 0.2j, -0.5 + 0.1j
        assert mobius_m(a, b) == pytest.approx(mobius_m(b, a), abs=1e-15)

    @given(disc_points, disc_points, disc_points, angles)
    @settings(max_examples=300, deadline=None)
    def test_automorphism_invariance(self, l1, l2, a, theta):
        h = BlaschkeMap(cmath.exp(1j * theta), (a,), 1.0)
        assert abs(mobius_m(h(l1), h(l2)) - mobius_m(l1, l2)) < 1e-12

    def test_automorphism_invariance_bulk(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            l1, l2, a = (complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(3))
            h = BlaschkeMap(cmath.exp(2j * math.pi * rng.uniform()), (a,), 1.0)
            assert abs(mobius_m(h(l1), h(l2)) - mobius_m(l1, l2)) < 1e-12


class TestScales:
    @given(st.floats(min_value=0.0, max_value=1.0 - 1e-8))
    @settings(max_examples=500)
    def test_artanh_tanh_round_trip(self, m):
        d = HyperbolicDistance.from_m(m)
        assert math.tanh(d.p_scale) == pytest.approx(m, rel=1e-14, abs=1e-300)
        assert d.p_scale == pytest.approx(math.atanh(d.m_scale), rel=1e-14, abs=0.0)

    def test_from_m_rejects_one(self):
        with pytest.raises(DomainError):
            HyperbolicDistance.from_m(1.0)

    def test_from_m_rejects_nan(self):
        with pytest.raises(DomainError):
            HyperbolicDistance.from_m(math.nan)


class TestValidatorsRejectNan:
    """NaN fails every comparison, so each validator asks whether its value
    lies inside the range, and NaN lands outside."""

    @pytest.mark.parametrize("make", [
        lambda: BlaschkeMap(1.0, (math.nan,), 1.0),
        lambda: BlaschkeMap(complex(math.nan, 0.0), (0.1,), 1.0),
        lambda: BlaschkeMap.constant(math.nan),
        lambda: BlaschkeMap(zeros=(complex(0.0, math.nan),))],
        ids=["automorphism-zero", "automorphism-factor", "constant", "zero"])
    def test_maps(self, make):
        with pytest.raises(DomainError):
            make()

    @pytest.mark.parametrize("check, inside", [(require_disc_point, 0.5),
                                               (require_closed_disc_point, 1.0),
                                               (require_unimodular, 1.0)],
                             ids=["disc", "closed-disc", "unimodular"])
    def test_scalars_and_array_entries(self, check, inside):
        # an array with a NaN entry raised no error, and require_unimodular
        # warned while normalizing it
        check(np.array([inside, inside]))
        for bad in (np.array([inside, math.nan]), complex(inside, math.nan)):
            with pytest.raises(DomainError):
                check(bad)


class TestBlaschkeMap:
    def test_constant_map(self):
        b = BlaschkeMap.constant(-0.5)
        assert b(0.3j) == -0.5
        assert b.is_constant and b.degree == 0

    def test_identity(self):
        b = BlaschkeMap.identity()
        assert b(0.3j) == 0.3j
        assert b.degree == 1 and b.scale >= 1.0 - 1e-12

    def test_two_zero_product_at_origin(self):
        # (0 - 0.5)(0 + 0.5) = -0.25
        b = BlaschkeMap(zeros=(0.5, -0.5))
        assert b(0.0) == pytest.approx(-0.25)

    def test_automorphism_basics(self):
        h = BlaschkeMap(1.0, (0.5,), 1.0)
        assert h(0.5) == 0.0
        assert h(0.0) == -0.5
        assert BlaschkeMap(1.0, (0.0,), 1.0)(0.7) == 0.7

    def test_rejects_zero_outside(self):
        with pytest.raises(DomainError):
            BlaschkeMap(zeros=(1.0,))

    def test_rejects_non_unimodular_factor(self):
        with pytest.raises(DomainError):
            BlaschkeMap(unimodular_factor=0.5, zeros=(0.1,))

    def test_a_map_without_zeros_is_its_constant(self):
        # BlaschkeMap(1, (), 1.0) is the constant 1, a boundary value, so
        # whatever needs phi in the open disc rejects it; a general disc
        # through it would give the boundary point (1, 0.5, 0.5) at 0.5
        one = BlaschkeMap(1, (), 1.0)
        assert one == BlaschkeMap.constant(1.0) and one.is_constant
        assert one.unimodular_factor == 1.0 and one.degree == 0
        with pytest.raises(DomainError):
            GeneralDiscParams(0.2, 1, 1, one, BlaschkeMap.identity())
        with pytest.raises(DomainError):
            boundary_disc(0.2, 1, 1, one)
        # the constant -1 is the one phi allowed at C = 1
        minus_one = BlaschkeMap(-1, (), 1.0)
        OriginGeodesicParams(1.0, 1, 1, minus_one)
        assert minus_one.unimodular_factor == -1.0
        # scale times factor is the constant, stored with scale 1
        half = BlaschkeMap(1j, (), 0.5)
        assert half == BlaschkeMap.constant(0.5j) and half.scale == 1.0
        with pytest.raises(DomainError):
            BlaschkeMap.constant(1.01)

    @pytest.mark.parametrize("c", [-0.25, 0.3 - 0.7j, 1e-300j, -1.0,
                                   np.array([[0.1 + 0.2j], [-0.9], [0.0]])],
                             ids=["real", "complex", "tiny", "boundary", "stack"])
    def test_constant_evaluates_to_its_value_exactly(self, c):
        b = BlaschkeMap.constant(c)
        grid = np.array([0.0, 0.3j, -0.5 + 0.1j])
        for lam in (0.4 - 0.2j, grid):
            value = b(lam)
            want = np.broadcast_to(c, np.broadcast_shapes(np.shape(c), np.shape(lam)))
            assert np.array_equal(value, want)
            assert np.array_equal(np.signbit(np.real(value)), np.signbit(np.real(want)))
            assert np.array_equal(b.derivative(lam), np.zeros_like(want))
        if np.ndim(c) == 0:
            assert type(b(0.1)) is complex and b(0.1) == c
        # a stack splits into its constants, a scalar map into itself
        assert b.split() == [BlaschkeMap.constant(complex(v)) for v in np.ravel(c)]

    @given(st.integers(0, 3), st.floats(0.0, 1.0),
           st.lists(disc_points.map(lambda z: 0.9 * z), min_size=0, max_size=3),
           angles, disc_points)
    @settings(max_examples=300, deadline=None)
    def test_maps_disc_into_closed_disc(self, _, scale, zeros, theta, lam):
        b = BlaschkeMap(cmath.exp(1j * theta), tuple(zeros), scale)
        assert abs(b(lam)) <= 1.0 + 1e-12

    def test_maps_disc_into_closed_disc_bulk(self):
        rng = np.random.default_rng(11)
        for _ in range(10000):
            deg = int(rng.integers(0, 3))
            zeros = tuple(0.95 * math.sqrt(rng.uniform())
                          * cmath.exp(2j * math.pi * rng.uniform())
                          for _ in range(deg))
            b = BlaschkeMap(cmath.exp(2j * math.pi * rng.uniform()), zeros,
                            rng.uniform())
            lam = 0.999 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            assert abs(b(lam)) <= 1.0 + 1e-12

    def test_derivative_matches_finite_differences(self):
        b = BlaschkeMap(cmath.exp(0.7j), (0.3 - 0.2j, -0.4j), 0.8)
        h = 1e-6
        for lam in (0.0, 0.3 + 0.1j, -0.5j):
            numeric = (b(lam + h) - b(lam - h)) / (2 * h)
            assert b.derivative(lam) == pytest.approx(numeric, abs=1e-8)

    def test_precompose_rotation(self):
        b = BlaschkeMap(cmath.exp(0.4j), (0.3,), 0.9)
        rho = cmath.exp(1.1j)
        rotated = b.precompose_rotation(rho)
        for lam in (0.2, -0.3 + 0.4j):
            assert rotated(lam) == pytest.approx(b(rho * lam), abs=1e-14)


def contracts(g, lam1, lam2, tol: float = 1e-12) -> bool:
    """m(g(l1), g(l2)) <= m(l1, l2) + tol for a self-map g of the disc,
    sampled at two points of the open disc."""
    lam1, lam2 = require_disc_point(lam1), require_disc_point(lam2)
    v1, v2 = (require_closed_disc_point(complex(g(lam))) for lam in (lam1, lam2))
    return mobius_m(v1, v2) <= mobius_m(lam1, lam2) + tol


class TestSchwarzPick:
    def test_identity_map_equality(self):
        assert contracts(lambda z: z, 0.3, -0.2 + 0.1j)

    def test_constant_map(self):
        assert contracts(lambda z: 0.4, 0.3, -0.2 + 0.1j)

    def test_squaring_map(self):
        # m(0, 0.25) = 0.25 <= m(0, 0.5) = 0.5
        assert contracts(lambda z: z * z, 0.0, 0.5)

    @given(disc_points, disc_points, angles, st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_blaschke_contracts(self, l1, l2, theta, scale):
        b = BlaschkeMap(cmath.exp(1j * theta), (0.2 - 0.3j,), scale)
        assert contracts(b, l1, l2)
