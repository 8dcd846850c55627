"""Diagonal pairs: the retract of the tetrablock onto the symmetrized bidisc.

iota(s, p) = (s/2, s/2, p) maps G2 into the tetrablock E and r(z) =
(z1 + z2, z3) maps E into G2, with r o iota the identity, so the diagonal
z1 = z2 is a holomorphic retract of E.  Hence c_E(iota a, iota b) =
c_G2(a, b), and Psi_eta o iota = -Phi_eta makes the Psi families exact
there: p_e = c_lower = c_G2, with nothing left to separate.  The upper
bound k_upper is not checked; the interpolating-disc search finds none on
these pairs yet.

The discs and the family map of G2 are those of E on the diagonal: iota
composed with the G2 origin geodesic of (C, omega), C in [1, 2], is the
origin geodesic of E with C' = C - 1, omega1 = conj(omega), omega2 = -1 and
phi = B(-omega, (-conj(omega) C',)), and G2FMap(omega) is -Psi_omega o iota.
"""

import math
from collections import Counter

import numpy as np
import pytest

from oracles import c_g2, diagonal_pairs, diagonal_point
from tetrablock.domains import Location, g2_membership, tetra_membership
from tetrablock.extremals import G2FMap, PsiOmegaMap, family_bounds
from tetrablock.geodesics import (G2GeodesicParams, OriginGeodesicParams,
                                  g2_geodesic_disc, origin_geodesic_disc, pair_report)
from tetrablock.hyperbolic import BlaschkeMap

PAIRS = diagonal_pairs(0, 12)


@pytest.mark.parametrize("a, b", PAIRS)
def test_c_lower_and_p_e_equal_the_g2_distance(a, b):
    w, z = diagonal_point(a), diagonal_point(b)
    c_lower = max(family_bounds(w, z))
    assert abs(c_lower - c_g2(a, b)) <= 1e-15
    report = pair_report(w, z, search=False)
    assert report.p_e.m_scale == report.c_lower.m_scale == c_lower
    assert report.separated is False


def test_diagonal_membership_is_g2_membership():
    # eigenvalues from the square [-1, 1]^2, the first one put on the unit
    # circle in one draw of eight, so each location occurs
    rng = np.random.default_rng(0)
    lam = rng.uniform(-1.0, 1.0, (20_000, 2, 2)) @ np.array([1.0, 1.0j])
    on_circle = rng.uniform(size=20_000) < 0.125
    lam[on_circle, 0] /= np.abs(lam[on_circle, 0])
    seen = Counter()
    for l1, l2 in lam:
        g2 = (complex(l1 + l2), complex(l1 * l2))
        location = g2_membership(g2).location
        assert tetra_membership(diagonal_point(g2)).location is location, g2
        seen[location] += 1
    assert all(seen[where] > 1000 for where in Location)


def tetrablock_params(g2: G2GeodesicParams) -> OriginGeodesicParams:
    """The origin geodesic of E whose diagonal is the G2 disc of ``g2``;
    at C = 2 the zero of phi reaches the circle, and phi is the constant -1."""
    c, omega = g2.C - 1.0, g2.omega
    zero = -omega.conjugate() * c
    phi = BlaschkeMap(-omega, (zero,)) if abs(zero) < 1.0 else BlaschkeMap.constant(-1.0)
    return OriginGeodesicParams(c, omega.conjugate(), -1.0, phi)


def test_g2_geodesics_are_tetrablock_geodesics_on_the_diagonal():
    # C uniform in the window and both of its ends, lam in the square of
    # half-side 0.7
    rng = np.random.default_rng(0)
    C = np.concatenate([rng.uniform(1.0, 2.0, 2000), [1.0, 2.0]])
    omega = np.exp(2j * math.pi * rng.uniform(size=C.size))
    lam = rng.uniform(-0.7, 0.7, (C.size, 2)) @ np.array([1.0, 1.0j])
    for c, w, l in zip(C, omega, lam):
        g2 = G2GeodesicParams(c, w)
        s, p = g2_geodesic_disc(g2)(complex(l))
        f1, f2, f3 = origin_geodesic_disc(tetrablock_params(g2))(complex(l))
        assert max(abs(f1 - f2), abs(f1 - s / 2.0), abs(f2 - s / 2.0),
                   abs(f3 - p)) <= 1e-15, (c, w, l)


def test_g2_family_map_is_minus_psi_on_the_diagonal():
    # eigenvalue pairs of modulus below 0.95, so (s, p) is interior to G2
    rng = np.random.default_rng(1)
    eig = 0.95 * np.sqrt(rng.uniform(size=(2, 2000))) * np.exp(
        2j * math.pi * rng.uniform(size=(2, 2000)))
    s, p = eig.sum(axis=0), eig.prod(axis=0)
    for omega in np.exp(2j * math.pi * rng.uniform(size=20)):
        F = G2FMap(omega)
        gap = np.abs(F((s, p)) + PsiOmegaMap(F.omega)(diagonal_point((s, p))))
        assert gap.max() <= 1e-15, omega
