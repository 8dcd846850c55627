"""Analytic function families on the tetrablock and the symmetrized bidisc,
and the distance-type quantities built from them.

The families shipped here map the domains holomorphically into the unit
disc, so the Mobius distance of their values at two points is a certified
lower bound for the Caratheodory pseudodistance; ``family_bounds`` gives it
for each family.  ``p_e``, the larger of the two Psi-family bounds (with and
without the coordinate swap), is dominated by ``caratheodory_lower_bound``,
the largest over the requested families, and on some pairs *strictly* --
the separation that ``magic_f`` detects.  The Psi-family maxima over the
unimodular parameter are exact: both orientations' sextics are solved as
the eigenvalues of one stack of two companion matrices, once per pair for
``geodesics.pair_report``.
"""

from __future__ import annotations

import cmath
import functools
from enum import Enum
from typing import Iterable, Tuple

import numpy as np

from .domains import (DEFAULT_BOUNDARY_TOL, G2Point, TetraPoint, as_coordinate,
                      is_interior, psi_eta)
from .errors import BranchError, DomainError, PoleError
from .hyperbolic import HyperbolicDistance, least, mobius_m, require_unimodular

_POLE_TOL = 1e-14


def _sqrt(value):
    """Principal square root; a scalar stays a Python complex."""
    return np.sqrt(value) if isinstance(value, np.ndarray) else cmath.sqrt(value)


def sigma(z) -> TetraPoint:
    """Swap of the first two coordinates; an involutive automorphism."""
    z = TetraPoint.of(z)
    return TetraPoint(z.z2, z.z1, z.z3)


def f_omega_automorphism(omega: complex, z) -> TetraPoint:
    """The rotation (z1, z2, z3) -> (omega z1, z2, omega z3), |omega| = 1."""
    omega = require_unimodular(omega)
    z = TetraPoint.of(z)
    return TetraPoint(omega * z.z1, z.z2, omega * z.z3)


def magic_f(z) -> complex:
    """z2 / sqrt(1 + z3 - z1 z2) with the principal branch.

    On interior points 1 + z3 - z1 z2 stays in the open right half-plane
    (|z1 z2 - z3| < 1 there), the branch is safe, and the value has
    modulus < 1.  A non-positive real part signals non-interior input.
    """
    z = TetraPoint.of(z)
    d = 1.0 + z.z3 - z.z1 * z.z2
    if least(d.real) <= 0.0:
        raise BranchError(f"Re(1 + z3 - z1 z2) = {least(d.real)} <= 0; input not interior")
    return z.z2 / _sqrt(d)


def g2_f(omega: complex, w) -> complex:
    """The symmetrized-bidisc family (2 omega p - s) / (2 - omega s)."""
    omega = require_unimodular(omega)
    w = G2Point.of(w)
    den = 2.0 - omega * w.s
    if least(abs(den)) < _POLE_TOL:
        raise PoleError(f"g2_f pole: |2 - omega*s| = {least(abs(den))}")
    return (2.0 * omega * w.p - w.s) / den


# ---------------------------------------------------------------------------
# gradient-equipped function objects (used by the necessary-condition checker)
# ---------------------------------------------------------------------------


class PsiOmegaMap:
    """Psi_eta as a map on C^3, optionally precomposed with the coordinate
    swap and postmultiplied by a unimodular factor.

    ``factor * Psi_eta(sigma^k z)`` with k in {0, 1}; carries closed-form
    partial derivatives.  ``eta`` and ``factor`` may be (n, 1) arrays, a
    stack of n maps applied row by row to points with coordinates of shape
    (n, m).
    """

    def __init__(self, eta: complex, *, swap_first: bool = False, factor: complex = 1.0):
        self.eta = as_coordinate(eta)
        self.swap_first = bool(swap_first)
        self.factor = as_coordinate(factor)

    def __call__(self, point) -> complex:
        z = TetraPoint.of(point)
        if self.swap_first:
            z = sigma(z)
        return self.factor * psi_eta(self.eta, z)

    def gradient(self, point) -> Tuple[complex, complex, complex]:
        z = TetraPoint.of(point)
        if self.swap_first:
            z = sigma(z)
        eta = self.eta
        den = eta * z.z1 - 1.0
        if least(abs(den)) < _POLE_TOL:
            raise PoleError("psi gradient pole")
        d1 = -eta * (eta * z.z3 - z.z2) / den ** 2
        d2 = -1.0 / den
        d3 = eta / den
        if self.swap_first:
            d1, d2 = d2, d1
        return (self.factor * d1, self.factor * d2, self.factor * d3)


class MagicFMap:
    """The square-root family z2 / sqrt(1 + z3 - z1 z2), with gradient."""

    def __call__(self, point) -> complex:
        return magic_f(point)

    def gradient(self, point) -> Tuple[complex, complex, complex]:
        z = TetraPoint.of(point)
        d = 1.0 + z.z3 - z.z1 * z.z2
        if least(d.real) <= 0.0:
            raise BranchError("gradient branch: input not interior")
        root = _sqrt(d)
        den = 2.0 * d * root
        return (z.z2 ** 2 / den, (2.0 * d + z.z1 * z.z2) / den, -z.z2 / den)


class G2FMap:
    """g2_f(omega, .) as a map on C^2, with gradient."""

    def __init__(self, omega: complex, *, factor: complex = 1.0):
        self.omega = require_unimodular(omega)
        self.factor = complex(factor)

    def __call__(self, point) -> complex:
        return self.factor * g2_f(self.omega, point)

    def gradient(self, point) -> Tuple[complex, complex]:
        w = G2Point.of(point)
        omega = self.omega
        den = 2.0 - omega * w.s
        if least(abs(den)) < _POLE_TOL:
            raise PoleError("g2_f gradient pole")
        d_s = (-2.0 + 2.0 * omega ** 2 * w.p) / den ** 2
        d_p = 2.0 * omega / den
        return (self.factor * d_s, self.factor * d_p)


class CoordinateMap:
    """The j-th coordinate function on C^dim, with gradient."""

    def __init__(self, index: int, dim: int):
        if not 0 <= index < dim:
            raise DomainError(f"coordinate index {index} out of range for dim {dim}")
        self.index = index
        self.dim = dim

    def __call__(self, point) -> complex:
        return as_coordinate(tuple(point)[self.index])

    def gradient(self, point) -> Tuple[complex, ...]:
        return tuple(1.0 + 0.0j if j == self.index else 0.0j for j in range(self.dim))


# ---------------------------------------------------------------------------
# distance-type suprema
# ---------------------------------------------------------------------------


class ExtremalFamily(Enum):
    PSI_OMEGA = "psi-omega"
    PSI_OMEGA_SIGMA = "psi-omega-sigma"
    MAGIC_F = "magic-f"
    G2_F_OMEGA = "g2-f-omega"


#: the shift part of a companion matrix of each degree n <= 6: ones below
#: the diagonal of the leading n x n block, zeros elsewhere
_SHIFTS = np.array([np.eye(6, k=-1) * (np.arange(6)[:, None] < n) for n in range(7)],
                   dtype=complex)


def _companion_row(w1, w2, w3, z1, z2, z3):
    """Degree and companion top row (padded to 6) of the critical polynomial
    of eta -> m(Psi_eta(w), Psi_eta(z)) on the circle.

    On the circle m = |A(eta)| / |B(eta)| (a prime marks the conjugate):
        A = (w2 - z2) + (z3 - w3 + z2 w1 - w2 z1) eta + (w3 z1 - z3 w1) eta^2
        B = (w3' z2 - w1') + (1 + w1' z1 - w3' z3 - w2' z2) eta + (w2' z3 - z1) eta^2
    With a = eta^2 |A|^2 and b = eta^2 |B|^2 (degree 4), the maximizers are
    unimodular roots of a' b - a b' (degree <= 6).
    """
    wc1, wc2, wc3 = w1.conjugate(), w2.conjugate(), w3.conjugate()
    A0, A1, A2 = w2 - z2, z3 - w3 + z2 * w1 - w2 * z1, w3 * z1 - z3 * w1
    B0, B1, B2 = wc3 * z2 - wc1, 1.0 + wc1 * z1 - wc3 * z3 - wc2 * z2, wc2 * z3 - z1
    # eta^2 |P|^2 is P times its reversed conjugate; its coefficients p0..p4
    # ascend, with p3 = conj(p1) and p4 = conj(p0)
    a0, a1 = A0 * A2.conjugate(), A0 * A1.conjugate() + A1 * A2.conjugate()
    a2 = A0 * A0.conjugate() + A1 * A1.conjugate() + A2 * A2.conjugate()
    b0, b1 = B0 * B2.conjugate(), B0 * B1.conjugate() + B1 * B2.conjugate()
    b2 = B0 * B0.conjugate() + B1 * B1.conjugate() + B2 * B2.conjugate()
    a3, a4, b3, b4 = a1.conjugate(), a0.conjugate(), b1.conjugate(), b0.conjugate()
    # coefficient k of a' b - a b' is the sum of (i - j) a_i b_j over
    # i + j = k + 1: the degree-7 term cancels, and coefficient 6 - k is
    # -conj(coefficient k)
    c0 = a1 * b0 - a0 * b1
    c1 = 2.0 * (a2 * b0 - a0 * b2)
    c2 = 3.0 * (a3 * b0 - a0 * b3) + (a2 * b1 - a1 * b2)
    c3 = 4.0 * (a4 * b0 - a0 * b4) + 2.0 * (a3 * b1 - a1 * b3)
    coeffs = (-c0.conjugate(), -c1.conjugate(), -c2.conjugate(), c3, c2, c1, c0)
    top = max(abs(c) for c in coeffs)
    if top == 0.0:  # w = z: m vanishes on the whole circle
        return 0, [0.0] * 6
    # end coefficients below 1e-14 of the largest are rounding noise: leading
    # ones throw the other roots far off, trailing ones only add roots near
    # 0, whose angle means nothing (eta = 1 is taken anyway).  Opposite ends
    # have equal moduli, so as many go from each end
    first = next(k for k, c in enumerate(coeffs) if abs(c) >= 1e-14 * top)
    lead = coeffs[first]
    row = [-c / lead for c in coeffs[first + 1:7 - first]]
    return len(row), row + [0.0] * (6 - len(row))


@functools.lru_cache(maxsize=1)
def _psi_family_bounds(w: TetraPoint, z: TetraPoint) -> Tuple[float, float]:
    """The maxima over |eta| = 1 of m(Psi_eta(w), Psi_eta(z)) and of
    m(Psi_eta(sigma w), Psi_eta(sigma z)).

    Both critical polynomials go into 6 x 6 companion matrices (a lower
    degree leaves zero rows and columns, whose roots 0 give eta = 1) and one
    eigenvalue solve; m is taken at eta = 1 and at every root projected to
    the circle, so each value is attained.  The last pair's result is kept,
    keyed on the six coordinates (array points are rejected before this), so
    a caller of ``p_e`` and then ``caratheodory_lower_bound`` on one pair, as
    the benchmark's pair report is, pays one solve.  The memory goes once the
    benchmark reads ``geodesics.pair_report`` (ROADMAP item 4).
    """
    (w1, w2, w3), (z1, z2, z3) = w, z
    (n0, row0), (n1, row1) = (_companion_row(w1, w2, w3, z1, z2, z3),
                              _companion_row(w2, w1, w3, z2, z1, z3))
    companions = np.array((_SHIFTS[n0], _SHIFTS[n1]))
    companions[:, 0, :] = (row0, row1)
    eta = np.ones((2, 1, 7), dtype=complex)
    eta[:, 0, :6] = np.exp(1j * np.angle(np.linalg.eigvals(companions)))
    # axis 0 the orientation, axis 1 the endpoint
    ends = np.array([[[w1, z1], [w2, z2]], [[w2, z2], [w1, z1]], [[w3, z3], [w3, z3]]])
    psi = psi_eta(eta, TetraPoint(*ends[..., None]))
    values = mobius_m(psi[:, 0], psi[:, 1]).max(axis=1)
    return float(values[0]), float(values[1])


TETRABLOCK_FAMILIES = (ExtremalFamily.PSI_OMEGA, ExtremalFamily.PSI_OMEGA_SIGMA,
                       ExtremalFamily.MAGIC_F)

#: the Psi families, in the order of ``_psi_family_bounds``
PSI_FAMILIES = TETRABLOCK_FAMILIES[:2]


def family_bounds(w, z, families: Iterable[ExtremalFamily] = TETRABLOCK_FAMILIES
                  ) -> Tuple[float, ...]:
    """The m-scale Caratheodory lower bound of each family, in order, on a
    pair of interior points: a Psi family's maximum over the unimodular
    parameter (both from one solve), and for ``magic_f`` the larger of its
    distance and that of ``magic_f o sigma``, which makes it sigma-invariant."""
    families = tuple(families)
    if not families or not all(map(TETRABLOCK_FAMILIES.__contains__, families)):
        raise DomainError("families must be a nonempty list of tetrablock families, "
                          f"got {[getattr(f, 'value', f) for f in families]}")
    w, z = TetraPoint.of(w), TetraPoint.of(z)
    for name, point in (("w", w), ("z", z)):
        if not is_interior(point, DEFAULT_BOUNDARY_TOL):
            raise DomainError(f"{name} must be interior to the tetrablock")
    psi = _psi_family_bounds(w, z) if any(map(PSI_FAMILIES.__contains__, families)) else ()
    magic = None
    if ExtremalFamily.MAGIC_F in families:
        # magic_f and magic_f o sigma: z2 and z1 over one root, as in magic_f
        rw, rz = (_sqrt(1.0 + p.z3 - p.z1 * p.z2) for p in (w, z))
        magic = float(max(mobius_m(w.z2 / rw, z.z2 / rz), mobius_m(w.z1 / rw, z.z1 / rz)))
    return tuple(magic if f is ExtremalFamily.MAGIC_F else psi[PSI_FAMILIES.index(f)]
                 for f in families)


def p_e(w, z) -> HyperbolicDistance:
    """sup over unimodular omega of the Psi-family distances, with and
    without the coordinate swap applied to both arguments: a lower bound for
    the Caratheodory pseudodistance, dominated by ``caratheodory_lower_bound``
    whenever both Psi families are included there."""
    return HyperbolicDistance.from_m(max(family_bounds(w, z, PSI_FAMILIES)))


def caratheodory_lower_bound(w, z, families: Iterable[ExtremalFamily] = TETRABLOCK_FAMILIES
                             ) -> HyperbolicDistance:
    """Best certified Caratheodory lower bound over the given families, the
    largest of their ``family_bounds``; reported as a lower bound, never as
    the pseudodistance itself."""
    return HyperbolicDistance.from_m(max(0.0, *family_bounds(w, z, families)))
