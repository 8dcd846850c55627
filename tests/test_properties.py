"""Metamorphic properties of the invariant bounds on seeded interior pairs.

The Caratheodory pseudodistance is invariant under the automorphisms sigma
(swap of z1 and z2) and f_omega (rotation), and p_e <= c_lower <= k_upper
order the Psi-family supremum, the certified lower bound and the
interpolating-disc upper bound.  The lower-bound families are closed under
sigma (magic_f enters with magic_f o sigma), so c_lower is sigma-invariant
on every pair, the separation pair (0, 0, -0.5), (0, 0.05, -0.5) included.
They are not closed under f_omega (magic_f o f_omega is not among them), so
rotation invariance of c_lower is a property of the random interior pairs
drawn here, where the Psi families dominate.  Holomorphic discs contract:
at the images f(l1), f(l2) of a disc, every family bound is at most
m(l1, l2) (Schwarz-Pick); on the general family the general-disc route
finds the pair and its bound is at most m(l1, l2) too.  At the origin the
sandwich closes: the Schwarz lemma gives l(0, z) = max(psi_sup(z),
psi_sup(sigma z)), which p_e takes in closed form, and the origin
geodesic, c_lower and k_upper all reach it.  Through the matrix ball the
lemma is an inequality: the symmetric 2 x 2 lift of z has norm below 1
exactly when z is in the domain, and at least l(0, z); its norm is the
gauge rho_functional(z).  The transported
origin geodesic lies on the boundary exactly when phi is an automorphism,
and inside the domain otherwise.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrablock.domains import (TetraPoint, e_value_raw, is_interior, psi_sup,
                                rho_functional)
from tetrablock.extremals import (caratheodory_lower_bound,
                                  f_omega_automorphism, p_e, sigma)
from tetrablock.geodesics import (DiscVerdict, GeneralDiscParams,
                                  OriginGeodesicParams, TransportClass,
                                  disc_search_upper_bound, general_disc,
                                  origin_geodesic_disc, origin_lempert,
                                  transport_disc, verify_disc)
from tetrablock.hyperbolic import BlaschkeMap, mobius_m
from tetrablock.verify import (PHI_KINDS, random_disc_point,
                               random_interior_points, random_phi_pinned,
                               random_self_map, random_unimodular,
                               sample_origin_params)

from oracles import ball_norm, symmetric_lift

seeds = st.integers(0, 2 ** 32 - 1)
angles = st.floats(0.0, 2.0 * math.pi)
bounded = settings(max_examples=40, deadline=None, derandomize=True)


def interior_pair(seed):
    w, z = random_interior_points(np.random.default_rng(seed), 2)
    return w, z


@given(seeds, angles)
@bounded
def test_bounds_invariant_under_automorphisms(seed, theta):
    w, z = interior_pair(seed)
    omega = cmath.exp(1j * theta)
    images = [(sigma(w), sigma(z)),
              (f_omega_automorphism(omega, w), f_omega_automorphism(omega, z))]
    pe = p_e(w, z).m_scale
    c_lower = caratheodory_lower_bound(w, z).m_scale
    for w2, z2 in images:
        assert abs(p_e(w2, z2).m_scale - pe) <= 1e-12
        assert abs(caratheodory_lower_bound(w2, z2).m_scale - c_lower) <= 1e-12


@pytest.mark.parametrize("w, z", [
    (TetraPoint(0, 0, -0.5), TetraPoint(0, 0.05, -0.5)),
    (TetraPoint(0, 0, -0.5), TetraPoint(0.05, 0, -0.5)),
])
def test_separation_pair_sigma_invariant(w, z):
    # magic_f separates this pair from p_e = 0.1 / 1.45 in either orientation
    c_lower = caratheodory_lower_bound(w, z).m_scale
    assert c_lower == pytest.approx(0.1 * math.sqrt(0.5), abs=1e-15)
    assert caratheodory_lower_bound(sigma(w), sigma(z)).m_scale == c_lower
    assert p_e(sigma(w), sigma(z)).m_scale == p_e(w, z).m_scale < c_lower


@given(seeds)
@bounded
def test_p_e_below_c_lower(seed):
    w, z = interior_pair(seed)
    assert p_e(w, z).m_scale <= caratheodory_lower_bound(w, z).m_scale + 1e-12


def closed_route_pair(kind, rng):
    """A pair of the class one closed-form search route covers."""
    if kind == "origin-geodesic":
        return TetraPoint(0, 0, 0), random_interior_points(rng, 1)[0]
    if kind == "axis-pair":
        c = random_disc_point(rng, 0.6)
        return (TetraPoint(0, 0, c),
                TetraPoint(0, random_disc_point(rng, 0.95 - abs(c)), c))
    a, b, c, d = (random_disc_point(rng) for _ in range(4))
    return TetraPoint(a, b, a * b), TetraPoint(c, d, c * d)


@given(seeds, st.sampled_from(["origin-geodesic", "axis-pair", "product"]))
@bounded
def test_c_lower_below_k_upper(seed, kind):
    w, z = closed_route_pair(kind, np.random.default_rng(seed))
    result = disc_search_upper_bound(w, z, budget=2000)
    assert result.found
    assert caratheodory_lower_bound(w, z).m_scale <= result.bound.m_scale + 1e-9


def schwarz_pick_disc(kind, rng):
    """A holomorphic disc into the tetrablock of the given kind."""
    if kind == "origin-geodesic":
        # every phi shape, and the C = 1 edge
        return origin_geodesic_disc(sample_origin_params(rng, 5)[rng.integers(5)])
    if kind == "general":
        # psi an automorphism: the disc is a geodesic
        psi = BlaschkeMap(random_unimodular(rng), (random_disc_point(rng),), 1.0)
        return general_disc(GeneralDiscParams(rng.uniform(0.0, 0.99), random_unimodular(rng),
                                              random_unimodular(rng),
                                              random_self_map(rng), psi))
    # the product disc (a, b, ab)
    a, b = random_self_map(rng), random_self_map(rng)
    return lambda lam: TetraPoint(a(lam), b(lam), a(lam) * b(lam))


@given(seeds, st.sampled_from(["origin-geodesic", "general", "product"]))
@bounded
def test_schwarz_pick_contraction(seed, kind):
    rng = np.random.default_rng(seed)
    f = schwarz_pick_disc(kind, rng)
    lam1, lam2 = random_disc_point(rng), random_disc_point(rng)
    w, z = f(lam1), f(lam2)
    pe = p_e(w, z).m_scale
    c_lower = caratheodory_lower_bound(w, z).m_scale
    assert pe <= c_lower <= mobius_m(lam1, lam2) + 1e-12
    if kind == "origin-geodesic":
        # the left inverse recovers lam, so the bound is attained at f(0) = 0
        assert abs(caratheodory_lower_bound(f(0.0), z).m_scale - abs(lam2)) <= 1e-9


def degree_map(rng, degree, zero=None):
    """A Blaschke map of the given degree, an automorphism in half the
    degree-1 draws, with its first zero at ``zero`` when one is given."""
    zeros = [random_disc_point(rng) for _ in range(degree)]
    if zero is not None:
        zeros[0] = zero
    scale = 1.0 if rng.uniform() < 0.5 else rng.uniform(0.3, 1.0)
    return BlaschkeMap(random_unimodular(rng), tuple(zeros), scale)


@given(seeds, st.sampled_from([1, 2]), st.sampled_from([1, 2]), st.integers(0, 2),
       st.booleans())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_general_family_pairs_are_found(seed, phi_degree, psi_degree, draw, near_boundary):
    rng = np.random.default_rng(seed)
    if near_boundary:
        lam_w, lam_z = (rng.uniform(0.99, 0.9999) * random_unimodular(rng) for _ in range(2))
    else:
        lam_w, lam_z = random_disc_point(rng, 0.95), random_disc_point(rng, 0.95)
    # one draw in three has phi(lam_w) = 0, so w3 = 0
    phi = degree_map(rng, phi_degree, lam_w if draw == 0 else None)
    f = general_disc(GeneralDiscParams(rng.uniform(0.0, 1.0), random_unimodular(rng),
                                       random_unimodular(rng), phi,
                                       degree_map(rng, psi_degree)))
    w, z = f(lam_w), f(lam_z)
    result = disc_search_upper_bound(w, z)
    assert result.found and result.family == "general-disc"
    k_upper = result.bound.m_scale
    assert caratheodory_lower_bound(w, z).m_scale <= k_upper + 1e-12
    assert k_upper <= mobius_m(lam_w, lam_z) + 1e-12


#: moves a point (z1, z2, z3) to offset e from a slice where the origin
#: solution degenerates
SLICES = {
    "none": lambda z1, z2, z3, e: (z1, z2, z3),
    "z1 = 0": lambda z1, z2, z3, e: (e, z2, z3),
    "z2 = 0": lambda z1, z2, z3, e: (z1, e, z3),
    "z3 = 0": lambda z1, z2, z3, e: (z1, z2, e),
    "z3 = z1 z2": lambda z1, z2, z3, e: (z1, z2, z1 * z2 + e),
    "z2 = conj(z1) z3": lambda z1, z2, z3, e: (z1, z1.conjugate() * z3 + e, z3),
}


def snapped_point(seed, slice_name, offset):
    """A random interior point moved to the given offset from a slice, and
    halved until the moved point is interior."""
    rng = np.random.default_rng(seed)
    coords = random_interior_points(rng, 1)[0].as_tuple()
    e = offset * random_unimodular(rng)
    move = SLICES[slice_name]
    while not is_interior(TetraPoint(*move(*coords, e))):
        coords = tuple(0.5 * c for c in coords)
    return TetraPoint(*move(*coords, e))


@given(seeds, st.sampled_from(sorted(SLICES)), st.sampled_from([0.0, 1e-12, 1e-8]))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_schwarz_lemma_at_the_origin(seed, slice_name, offset):
    z = snapped_point(seed, slice_name, offset)
    exact = max(psi_sup(z), psi_sup(sigma(z)))
    sol = origin_lempert(z)
    assert sol is not None and sol.residual < 1e-12
    report = verify_disc(sol.disc(), sol.left_inverse())
    assert report.verdict is DiscVerdict.GEODESIC_VERIFIED
    origin = TetraPoint(0, 0, 0)
    upper = disc_search_upper_bound(origin, z)
    assert upper.found
    # the Psi-family bound takes the closed form itself
    assert p_e(origin, z).m_scale == exact
    for value in (abs(sol.lam0), caratheodory_lower_bound(origin, z).m_scale,
                  upper.bound.m_scale):
        assert abs(value - exact) <= 1e-14


def test_symmetric_lift_decides_membership():
    # z is in E exactly when its symmetric lift is a strict contraction.
    # The lift's norm in doubles is within about 1e-7 of the exact one (the
    # discriminant's rounding, square-rooted), so beyond 1.001 it shows the
    # point outside; below, the 50-digit norm decides
    rng = np.random.default_rng(11)
    n = 200_000
    z1, z2, z3 = 1.2 * (rng.uniform(-1.0, 1.0, (3, n))
                        + 1j * rng.uniform(-1.0, 1.0, (3, n))) / math.sqrt(2.0)
    inside = e_value_raw(z1, z2, z3) < 1.0
    frob = np.abs(z1) ** 2 + np.abs(z2) ** 2 + 2.0 * np.abs(z1 * z2 - z3)
    det = np.abs(z3)
    near = np.sqrt((frob + np.sqrt(np.maximum(frob * frob - 4.0 * det * det, 0.0))) / 2.0) < 1.001
    assert inside.sum() == 14_148 and not (inside & ~near).any()
    assert [k for k in np.flatnonzero(near)
            if (ball_norm(symmetric_lift((z1[k], z2[k], z3[k]))) < 1) != inside[k]] == []


def test_schwarz_lemma_through_the_ball():
    # a lift A of z gives l(0, z) <= m_B(0, A) = ||A||; the smallest margin
    # on these points is 1.6e-6
    for z in random_interior_points(np.random.default_rng(0), 20_000):
        exact = max(psi_sup(z), psi_sup(sigma(z)))
        assert float(ball_norm(symmetric_lift(z))) >= exact - 1e-15


def test_gauge_is_the_symmetric_lift_norm():
    # rho(z) = ||[[z1, s], [s, z2]]|| with s^2 = q = z1 z2 - z3: the lift's
    # Gram matrix has diagonal |z1|^2 + |q| and |z2|^2 + |q| and an
    # off-diagonal entry of modulus sqrt|q| |z1 + conj(z2) q / |q||, and
    # its larger eigenvalue is the square of the gauge's closed form.  The
    # largest relative gaps are 4.2e-16 (interior) and 2.6e-16 (cube)
    rng = np.random.default_rng(11)
    n = 2_000
    cube = 1.2 * (rng.uniform(-1.0, 1.0, (3, n))
                  + 1j * rng.uniform(-1.0, 1.0, (3, n))) / math.sqrt(2.0)
    for points in (random_interior_points(np.random.default_rng(0), n), zip(*cube)):
        for z in points:
            exact = ball_norm(symmetric_lift(z))
            assert abs(rho_functional(z) - exact) <= 1e-15 * exact


@given(seeds, st.sampled_from(PHI_KINDS), st.booleans())
@bounded
def test_transport_dichotomy(seed, kind, stacked):
    # the paper's dichotomy, for a record and for a stack of eight, with
    # C < 1 (at C = 1 the transported disc is the boundary point
    # (0, 0, -w1 w2) whatever phi)
    rng = np.random.default_rng(seed)
    C = rng.uniform(0.0, 0.95, size=(8, 1) if stacked else None)
    omega1, omega2 = random_unimodular(rng, (2,) + np.shape(C))
    phi = random_phi_pinned(rng, C, kind)
    verdict = np.ravel(transport_disc(OriginGeodesicParams(C, omega1, omega2, phi)).classify())
    automorphic = np.broadcast_to(np.ravel(phi.is_automorphism), verdict.shape)
    assert list(verdict) == [TransportClass.BOUNDARY if a else TransportClass.INTERIOR
                             for a in automorphic]
