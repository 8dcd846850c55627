"""Diagonal pairs: the retract of the tetrablock onto the symmetrized bidisc.

iota(s, p) = (s/2, s/2, p) maps G2 into the tetrablock E and r(z) =
(z1 + z2, z3) maps E into G2, with r o iota the identity, so the diagonal
z1 = z2 is a holomorphic retract of E.  Hence c_E(iota a, iota b) =
c_G2(a, b), and Psi_eta o iota = -Phi_eta makes the Psi families exact
there: p_e = c_lower = c_G2, with nothing left to separate.  The upper
bound k_upper is not checked; the interpolating-disc search finds none on
these pairs yet.
"""

from collections import Counter

import numpy as np
import pytest

from oracles import c_g2, diagonal_pairs, diagonal_point
from tetrablock.domains import Location, g2_membership, tetra_membership
from tetrablock.extremals import family_bounds
from tetrablock.geodesics import pair_report

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
