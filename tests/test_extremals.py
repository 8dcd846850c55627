import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrablock import extremals
from tetrablock.domains import TetraPoint, is_interior
from tetrablock.errors import DomainError, PoleError
from tetrablock.extremals import (FamilyBounds, G2FMap, PsiOmegaMap,
                                  caratheodory_lower_bound, family_bounds,
                                  f_omega_automorphism, p_e, psi_eta, sigma)
from tetrablock.geodesics import OriginGeodesicParams, eval_origin_geodesic
from tetrablock.hyperbolic import BlaschkeMap, mobius_m
from tetrablock.verify import (random_disc_point, random_interior_points,
                               random_unimodular)

from oracles import magic_f, numeric_gradient


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
    """The square-root family z2 / sqrt(1 + z3 - z1 z2) through the
    ``magic_f`` field of ``family_bounds``: the larger of its distance and
    that of its composition with sigma."""

    def test_unit_denominator(self):
        assert family_bounds((0, 0, 0), (0, 0.7, 0)).magic_f == pytest.approx(0.7)

    def test_product_point(self):
        # 1 + 0.25 - 0.25 = 1
        assert family_bounds((0, 0, 0), (0.5, 0.5, 0.25)).magic_f == pytest.approx(0.5)

    def test_extremal_family_value(self):
        # the separation family: magic_f vanishes at the first point, and is
        # lam (1 - C) / sqrt(1 - C) at the second
        lam, C = 0.37, 0.42
        value = family_bounds((0, 0, -C), (0, lam * (1 - C), -C)).magic_f
        assert value == pytest.approx(lam * math.sqrt(1 - C), abs=1e-15)

    def test_maps_interior_into_open_disc(self):
        # the radicand stays in the right half-plane, away from the branch
        # cut, so the family is holomorphic on the interior and its bound is
        # certified
        rng = np.random.default_rng(4)
        for z in random_interior_points(rng, 10000):
            assert abs(z.z1 * z.z2 - z.z3) < 1.0  # branch-safety certificate
            assert (1.0 + z.z3 - z.z1 * z.z2).real > 0.0
            assert abs(magic_f(z)) < 1.0

    def test_matches_oracle_on_pairs(self):
        points = random_interior_points(np.random.default_rng(6), 400)
        for w, z in zip(points[:200], points[200:]):
            expected = max(mobius_m(magic_f(w), magic_f(z)),
                           mobius_m(magic_f(sigma(w)), magic_f(sigma(z))))
            assert abs(family_bounds(w, z).magic_f - expected) <= 1e-15


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


def exact_psi_distance(eta, w, z):
    """m(Psi_eta(w), Psi_eta(z)) in 30-digit arithmetic.  In doubles
    Psi_eta(z) loses up to about ten ulps where eta z1 is near 1, and m a few
    e-15 with it: on the slice pair w3 = 0 of seed 77606 the double value at
    the np.roots maximizer was 3.7e-15 above the 40-digit maximum, the
    kernel 3.0e-15 below it."""
    with mpmath.workdps(30):
        eta = mpmath.mpc(complex(eta))
        x, y = ((mpmath.mpc(complex(p.z3)) * eta - mpmath.mpc(complex(p.z2)))
                / (mpmath.mpc(complex(p.z1)) * eta - 1) for p in (w, z))
        return float(abs((x - y) / (1 - mpmath.conj(x) * y)))


def reference_psi_bound(w, z, swap):
    """The Psi-family maximum one orientation at a time, by np.roots on the
    sextic: the formula the stacked companion solve replaced, with m taken
    exactly at each root (``exact_psi_distance``), so the bound on the
    kernel measures the kernel's error and not the reference's."""
    if swap:
        w, z = sigma(w), sigma(z)
    wc1, wc2, wc3 = w.z1.conjugate(), w.z2.conjugate(), w.z3.conjugate()
    A = np.array([w.z2 - z.z2, z.z3 - w.z3 + z.z2 * w.z1 - w.z2 * z.z1,
                  w.z3 * z.z1 - z.z3 * w.z1])
    B = np.array([wc3 * z.z2 - wc1, 1.0 + wc1 * z.z1 - wc3 * z.z3 - wc2 * z.z2,
                  wc2 * z.z3 - z.z1])
    a, b = np.convolve(A, A[::-1].conj()), np.convolve(B, B[::-1].conj())
    order = np.arange(1, 5)
    crit = np.convolve(a[1:] * order, b) - np.convolve(a, b[1:] * order)
    coeffs = crit[6::-1]
    kept = np.flatnonzero(np.abs(coeffs) >= 1e-14 * np.abs(coeffs).max())
    eta = np.exp(1j * np.angle(np.append(np.roots(coeffs[kept[0]:kept[-1] + 1]), 1.0)))
    return max(exact_psi_distance(e, w, z) for e in eta)


def slice_pair(kind, rng):
    """An interior pair on one of the slices where the sextic degenerates."""
    if kind == "w = z":
        z = random_interior_points(rng, 1)[0]
        return z, z
    if kind in ("z1 = 0", "z2 = 0"):
        # (0, b, c) is interior iff |b| < 1 - |c|
        ends = []
        for _ in range(2):
            c = random_disc_point(rng, 0.9)
            b = random_disc_point(rng, 1.0 - abs(c))
            ends.append(TetraPoint(0, b, c) if kind == "z1 = 0" else TetraPoint(b, 0, c))
        return tuple(ends)
    if kind == "w3 = 0":
        # (a, b, 0) is interior iff |a| + |b| < 1
        a = random_disc_point(rng, 1.0)
        w = TetraPoint(a, random_disc_point(rng, 1.0 - abs(a)), 0)
        return w, random_interior_points(rng, 1)[0]
    if kind == "axis":
        c = random_disc_point(rng, 0.9)
        return TetraPoint(0, 0, c), TetraPoint(0, random_disc_point(rng, 1.0 - abs(c)), c)
    if kind == "product":
        a, b, c, d = (random_disc_point(rng, 1.0) for _ in range(4))
        return TetraPoint(a, b, a * b), TetraPoint(c, d, c * d)
    if kind == "separation":
        return TetraPoint(0, 0, -0.5), TetraPoint(0, 0.05, -0.5)
    # w = 0 and |z1| tiny: the sextic's end coefficients are rounding noise
    c = random_disc_point(rng, 0.9)
    z1 = 10.0 ** rng.uniform(-12.0, -8.0) * random_unimodular(rng)
    return TetraPoint(0, 0, 0), TetraPoint(z1, random_disc_point(rng, 0.99 - abs(c)), c)


SLICE_KINDS = ["w = z", "z1 = 0", "z2 = 0", "w3 = 0", "axis", "product",
               "separation", "w = 0, tiny z1"]


class TestPsiKernel:
    """Both orientations from one stacked eigenvalue solve agree with the
    one-orientation np.roots formula."""

    @staticmethod
    def assert_matches_reference(w, z):
        plain, swapped = reference_psi_bound(w, z, False), reference_psi_bound(w, z, True)
        bounds = family_bounds(w, z)
        assert abs(p_e(w, z).m_scale - max(plain, swapped)) <= 4.4e-15
        assert abs(caratheodory_lower_bound(w, z).m_scale
                   - max(plain, swapped, bounds.magic_f)) <= 4.4e-15
        assert abs(bounds.psi_omega - plain) <= 4.4e-15
        assert abs(bounds.psi_omega_sigma - swapped) <= 4.4e-15

    def test_seeded_pairs(self):
        points = random_interior_points(np.random.default_rng(5), 4000)
        for w, z in zip(points[:2000], points[2000:]):
            self.assert_matches_reference(w, z)

    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(SLICE_KINDS))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_degenerate_slices(self, seed, kind):
        w, z = slice_pair(kind, np.random.default_rng(seed))
        assert is_interior(w) and is_interior(z)
        self.assert_matches_reference(w, z)
        self.assert_matches_reference(z, w)

    def test_single_families_take_their_own_orientation(self):
        # the separation pair moved off z1 = 0, where the two orientations
        # give different maxima
        w, z = TetraPoint(0.3, 0, -0.5), TetraPoint(0.3, 0.05, -0.5)
        plain, swapped = reference_psi_bound(w, z, False), reference_psi_bound(w, z, True)
        assert abs(plain - swapped) > 1e-3
        bounds = family_bounds(w, z)
        assert bounds.psi_omega == pytest.approx(plain, abs=4.4e-15)
        assert bounds.psi_omega_sigma == pytest.approx(swapped, abs=4.4e-15)

    @pytest.fixture
    def solves(self, monkeypatch):
        """The shapes passed to np.linalg.eigvals, starting from an empty
        pair cache; np.roots is forbidden."""
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(np.shape(a))
            return eigvals(a)

        def forbidden(p):
            raise AssertionError("np.roots called")

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        monkeypatch.setattr(np, "roots", forbidden)
        extremals._psi_family_bounds.cache_clear()
        return calls

    @pytest.mark.parametrize("bound", [p_e, caratheodory_lower_bound])
    def test_one_eigenvalue_solve_per_call(self, bound, solves):
        w, z = random_interior_points(np.random.default_rng(6), 2)
        bound(w, z)
        assert solves == [(2, 6, 6)]

    def test_both_bounds_of_a_pair_share_one_solve(self, solves):
        w, z, v = random_interior_points(np.random.default_rng(6), 3)
        p_e(w, z)
        caratheodory_lower_bound(w, z)
        assert solves == [(2, 6, 6)]
        caratheodory_lower_bound(TetraPoint(*w), TetraPoint(*z))
        assert len(solves) == 1
        p_e(w, v)
        assert len(solves) == 2
        # one pair is kept: going back to the first pair solves again
        p_e(w, z)
        assert len(solves) == 3
        caratheodory_lower_bound(z, w)
        assert len(solves) == 4

    @pytest.mark.parametrize("bound", [family_bounds, p_e, caratheodory_lower_bound])
    @pytest.mark.parametrize("position", [0, 5])
    def test_nan_candidate_raises(self, bound, position, monkeypatch):
        # a NaN root projects to a NaN eta and a NaN distance, the second or
        # the last of an orientation's seven; Python's max would skip it
        eigvals = np.linalg.eigvals

        def with_nan(a):
            roots = eigvals(a)
            roots[:, position] = np.nan
            return roots

        monkeypatch.setattr(np.linalg, "eigvals", with_nan)
        extremals._psi_family_bounds.cache_clear()
        w, z = random_interior_points(np.random.default_rng(6), 2)
        with pytest.raises(DomainError, match="NaN"):
            bound(w, z)

    def test_kept_pair_gives_the_bits_of_a_fresh_solve(self):
        points = random_interior_points(np.random.default_rng(8), 200)
        for w, z in zip(points[:100], points[100:]):
            kept = (p_e(w, z).m_scale, caratheodory_lower_bound(w, z).m_scale)
            extremals._psi_family_bounds.cache_clear()
            fresh_c = caratheodory_lower_bound(w, z).m_scale
            extremals._psi_family_bounds.cache_clear()
            assert kept == (p_e(w, z).m_scale, fresh_c)


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

    def test_bounds_are_fields_of_one_record(self):
        points = random_interior_points(np.random.default_rng(13), 40)
        for w, z in zip(points[:20], points[20:]):
            bounds = family_bounds(w, z)
            assert isinstance(bounds, FamilyBounds)
            assert p_e(w, z).m_scale == max(bounds.psi_omega, bounds.psi_omega_sigma)
            assert caratheodory_lower_bound(w, z).m_scale == max(bounds)

    def test_p_e_takes_no_magic_f(self, monkeypatch):
        def no_root(value):
            raise AssertionError("magic_f computed")

        # the one root of family_bounds is the square-root family's
        monkeypatch.setattr(extremals.cmath, "sqrt", no_root)
        w, z = random_interior_points(np.random.default_rng(14), 2)
        p_e(w, z)
        with pytest.raises(AssertionError, match="magic_f computed"):
            family_bounds(w, z)

    @pytest.mark.parametrize("bound", [family_bounds, caratheodory_lower_bound])
    def test_exterior_endpoint_rejected(self, bound):
        with pytest.raises(DomainError, match="z must be interior"):
            bound(TetraPoint(0, 0, 0), TetraPoint(0, 0, 2))

    @pytest.mark.parametrize("bound", [family_bounds, p_e, caratheodory_lower_bound])
    def test_array_point_rejected(self, bound):
        block = TetraPoint(np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(DomainError, match="z must be one point, not an array"):
            bound(TetraPoint(0, 0, 0), block)
        with pytest.raises(DomainError, match="w must be one point, not an array"):
            bound((np.zeros(1), 0.0, 0.0), (0, 0, 0))


class TestG2F:
    def test_origin(self):
        assert G2FMap(1.0)((0, 0)) == 0.0

    def test_right_inverse_of_symmetrized_diagonal(self):
        # (2 w lam^2 + 2 lam) / (2 + 2 w lam) = lam
        for omega in (1.0, cmath.exp(0.9j)):
            for lam in (0.4, -0.2 + 0.3j):
                value = G2FMap(omega)((-2 * lam, lam * lam))
                assert value == pytest.approx(lam, abs=1e-14)

    def test_substitution(self):
        assert G2FMap(1.0)((1.0, 0.25)) == pytest.approx(-0.5)

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            G2FMap(1.0)((2.0, 0.0))

    def test_non_unimodular_omega_rejected(self):
        with pytest.raises(DomainError):
            G2FMap(0.5)

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
