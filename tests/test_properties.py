"""Metamorphic properties of the invariant bounds on seeded interior pairs.

The Caratheodory pseudodistance is invariant under the automorphisms sigma
(swap of z1 and z2) and f_omega (rotation), and p_e <= c_lower <= k_upper
order the Psi-family supremum, the certified lower bound and the
interpolating-disc upper bound.  The lower-bound family set is not closed
under sigma (magic_f reads z2 only), so its invariance is a property of the
random interior pairs drawn here, where the Psi families dominate; at the
separation pair (0, 0, -0.5), (0, 0.05, -0.5) it does not hold.
"""

import cmath
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrablock.domains import TetraPoint
from tetrablock.extremals import (caratheodory_lower_bound,
                                  f_omega_automorphism, p_e, sigma)
from tetrablock.geodesics import disc_search_upper_bound
from tetrablock.verify import random_disc_point, random_interior_points

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
