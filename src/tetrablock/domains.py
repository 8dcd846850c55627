"""Membership and scaling functionals for the tetrablock and the symmetrized
bidisc.

The tetrablock is the domain of triples (z1, z2, z3) with

    |z1 - conj(z2) z3| + |z2 - conj(z1) z3| + |z3|^2 < 1,

and the symmetrized bidisc is the set of pairs (s, p) = (l + m, l * m) with
both l, m in the open unit disc.  Membership for the tetrablock is computed
two independent ways: directly through the defining functional above, and
through the supremum over unimodular eta of the rational family

    Psi_eta(z) = (eta z3 - z2) / (eta z1 - 1),

which stays below 1 in modulus exactly on the domain (for |z1| < 1, the
supremum over the closed disc in eta reduces to the circle by the maximum
principle); ``psi_sup`` gives that supremum in closed form.

The domain is (1, 1, 2)-balanced: with z in it, so is (l z1, l z2, l^2 z3)
for |l| <= 1.  ``rho_functional`` is the gauge of that scaling, found by
bisection on the same criterion written for the scaled point, to a relative
width of a few ulps and at every floating-point scale.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from .errors import DomainError, PoleError

#: default width of the boundary band in membership classification
DEFAULT_BOUNDARY_TOL = 1e-10

_POLE_TOL = 1e-14


def as_coordinate(value):
    """A point coordinate: scalars become Python ``complex``, arrays complex
    ndarrays (so a point can carry a whole sample grid at once)."""
    if isinstance(value, np.ndarray) and value.ndim:
        return value.astype(complex, copy=False)
    return complex(value)


class Location(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


@dataclass(frozen=True)
class TetraPoint:
    """A point of C^3 (or an array of sample points), classified against the
    tetrablock."""

    z1: complex
    z2: complex
    z3: complex

    def __post_init__(self):
        object.__setattr__(self, "z1", as_coordinate(self.z1))
        object.__setattr__(self, "z2", as_coordinate(self.z2))
        object.__setattr__(self, "z3", as_coordinate(self.z3))

    @staticmethod
    def of(value) -> "TetraPoint":
        if isinstance(value, TetraPoint):
            return value
        z1, z2, z3 = value
        return TetraPoint(z1, z2, z3)

    def as_tuple(self) -> Tuple[complex, complex, complex]:
        return (self.z1, self.z2, self.z3)

    def __iter__(self):
        return iter(self.as_tuple())


@dataclass(frozen=True)
class G2Point:
    """A point (s, p) of C^2 (or an array of sample points) classified
    against the symmetrized bidisc."""

    s: complex
    p: complex

    def __post_init__(self):
        object.__setattr__(self, "s", as_coordinate(self.s))
        object.__setattr__(self, "p", as_coordinate(self.p))

    @staticmethod
    def of(value) -> "G2Point":
        if isinstance(value, G2Point):
            return value
        s, p = value
        return G2Point(s, p)

    @staticmethod
    def from_roots(lam: complex, mu: complex) -> "G2Point":
        return G2Point(lam + mu, lam * mu)

    def as_tuple(self) -> Tuple[complex, complex]:
        return (self.s, self.p)

    def __iter__(self):
        return iter(self.as_tuple())


@dataclass(frozen=True)
class MembershipReport:
    location: Location
    e_value: float
    tolerance_used: float


@dataclass(frozen=True)
class G2MembershipReport:
    location: Location
    max_root_modulus: float
    roots: Tuple[complex, complex]
    tolerance_used: float


def _modulus(x):
    """|x| of a scalar or an array; inf where Python's ``abs`` of a finite
    complex beyond the float range raises OverflowError."""
    try:
        return abs(x)
    except OverflowError:
        return math.inf


def e_value_raw(z1, z2, z3):
    """Defining functional of the tetrablock; accepts scalars or arrays.

    A Python scalar point stays in Python arithmetic, which overflows to inf
    without a warning (numpy scalars warn); the moduli are the same C
    ``hypot`` values as numpy's."""
    # a product, not ** 2: a Python float power raises OverflowError where
    # the product gives inf
    r3 = _modulus(z3)
    return (_modulus(z1 - z2.conjugate() * z3)
            + _modulus(z2 - z1.conjugate() * z3)
            + r3 * r3)


def tetra_e_value(z) -> float:
    """|z1 - conj(z2) z3| + |z2 - conj(z1) z3| + |z3|^2, always >= 0."""
    z = TetraPoint.of(z)
    return float(e_value_raw(z.z1, z.z2, z.z3))


def _classify(value: float, tol: float) -> Location:
    if value < 1.0 - tol:
        return Location.INTERIOR
    if abs(value - 1.0) <= tol:
        return Location.BOUNDARY
    return Location.EXTERIOR


def _require_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be finite and positive, got {tol}")


def tetra_membership(z, tol: float = DEFAULT_BOUNDARY_TOL) -> MembershipReport:
    """Classify a point against the tetrablock by the defining functional."""
    _require_tol(tol)
    e = tetra_e_value(z)
    return MembershipReport(_classify(e, tol), e, tol)


def is_interior(z, tol: float = DEFAULT_BOUNDARY_TOL) -> bool:
    return tetra_e_value(z) < 1.0 - tol


def psi_eta(eta, z):
    """The rational membership family (eta z3 - z2) / (eta z1 - 1).

    Requires eta in the closed disc and eta z1 != 1; on interior points the
    value has modulus < 1.  Array etas and array points broadcast against
    each other and give an array of values.
    """
    z = TetraPoint.of(z)
    eta = as_coordinate(eta)
    eta_max = np.abs(eta).max()
    if eta_max > 1.0 + 1e-12:
        raise DomainError(f"eta must lie in the closed disc, got |eta| = {eta_max}")
    den = eta * z.z1 - 1.0
    # |den| >= 1 - |eta| |z1|, so the sample-by-sample test runs only when
    # that bound does not already clear the pole
    if 1.0 - eta_max * np.abs(z.z1).max() < _POLE_TOL and np.abs(den).min() < _POLE_TOL:
        raise PoleError(f"psi_eta pole: |eta*z1 - 1| = {np.abs(den).min()}")
    return (eta * z.z3 - z.z2) / den


def psi_sup(z):
    """sup over |eta| = 1 of |Psi_eta(z)|, the H-infinity norm of Psi(., z)
    (Abouhajar, White and Young, J. Geom. Anal. 2007, Thm 2.2).

    For |z1| < 1 the circle |eta| = 1 maps onto the circle of centre
    (z2 - conj(z1) z3) / (1 - |z1|^2) and radius |z1 z2 - z3| / (1 - |z1|^2);
    the sum of both moduli is taken over (1 - |z1|)(1 + |z1|), accurate as
    |z1| -> 1.  The value is < 1 exactly when the defining functional is.
    Array points give one supremum per sample, a scalar point a float, inf
    without a warning when the value leaves the float range.
    """
    point = TetraPoint.of(z)
    # numpy scalars too, so a point and its block agree to the last digit
    z1, z2, z3 = (np.asarray(c) for c in point)
    r1 = np.abs(z1)
    if r1.size and np.max(r1) >= 1.0:
        raise DomainError(f"psi_sup requires |z1| < 1, got {np.max(r1)}")
    # z2, z3 components below 1e290 keep it below 6.5e306, as 1 - |z1|^2 >= 2^-53
    if not r1.ndim and max(abs(point.z2.real), abs(point.z2.imag), abs(point.z3.real),
                           abs(point.z3.imag)) >= 1e290:
        with np.errstate(over="ignore"):
            return float(psi_sup(TetraPoint(z1[None], z2[None], z3[None]))[0])
    val = ((np.abs(z2 - np.conjugate(z1) * z3) + np.abs(z1 * z2 - z3))
           / ((1.0 - r1) * (1.0 + r1)))
    return val if val.ndim else float(val)


def stable_quadratic_roots(s, p):
    """Roots of t^2 - s t + p = 0, sign-matched to avoid cancellation.

    Returns the roots ordered by decreasing modulus, ties broken by real and
    then imaginary part.  Scalar input gives a pair of ``complex``; array
    input gives a pair of arrays ordered entry by entry.
    """
    s = np.asarray(s, dtype=complex)
    p = np.asarray(p, dtype=complex)
    with np.errstate(all="ignore"):
        sq = np.sqrt(s * s - 4.0 * p)
        # pick the branch that adds constructively to s
        plus, minus = s + sq, s - sq
        q = np.where(np.abs(plus) >= np.abs(minus), plus, minus) / 2.0
        q = np.where(q == 0.0, 0.0j, q)
        other = p / q
        # q = 0 (roots 0 and s) or subnormal q: fall back on the root sum
        other = np.where(np.isfinite(other), other, s - q)
        aq, ao = np.abs(q), np.abs(other)
        swap = np.where(ao != aq, ao > aq,
                        np.where(other.real != q.real, other.real < q.real,
                                 other.imag < q.imag))
    first, second = np.where(swap, other, q), np.where(swap, q, other)
    if first.ndim:
        return first, second
    return complex(first), complex(second)


def g2_roots(w):
    """Root pair of a point (or of an array point) of the symmetrized bidisc."""
    w = G2Point.of(w)
    return stable_quadratic_roots(w.s, w.p)


def g2_membership(w, tol: float = DEFAULT_BOUNDARY_TOL) -> G2MembershipReport:
    """Classify (s, p) against the symmetrized bidisc via the root pair."""
    _require_tol(tol)
    w = G2Point.of(w)
    roots = g2_roots(w)
    worst = max(abs(r) for r in roots)
    return G2MembershipReport(_classify(worst, tol), worst, roots, tol)


def rho_functional(z, tol: float = 4 * sys.float_info.epsilon) -> float:
    """Quasi-homogeneous gauge of the tetrablock.

    rho(z) is the infimum of t > 0 such that (z1/t, z2/t, z3/t^2) lies in
    the closed domain; rho(0) = 0.  It scales as
    rho(l z1, l z2, l^2 z3) = |l| rho(z) and satisfies rho(z) < 1 iff z is
    interior.  The domain is (1, 1, 2)-balanced, so membership is monotone
    in t, and rho lies in [m, 3m] with m = max(|z1|, |z2|, sqrt|z3|): below m
    a coordinate leaves the closed disc, and at 3m the defining functional is
    at most 2/3 + 2/27 + 1/81.  Bisection on the criterion of Abouhajar,
    White and Young,

        |z2 D + conj(z1) q| + |q| t < D t,   D = t^2 - |z1|^2,  q = z1 z2 - z3,

    (``psi_sup`` < 1 at the scaled point, times t^3) narrows that bracket
    to a relative width ``tol``.  Written with D and q, the left side keeps
    its relative accuracy where the criterion changes sign, also on the
    product points (a, b, ab), where q = 0.  The point is first scaled by a
    power of two, exactly by quasi-homogeneity, so nothing underflows or
    overflows.  Python scalars only; non-finite coordinates and a gauge
    beyond the float range raise ``DomainError``.
    """
    _require_tol(tol)
    parts = [x for c in TetraPoint.of(z) for x in (c.real, c.imag)]
    if not all(math.isfinite(x) for x in parts):
        raise DomainError("rho_functional needs finite coordinates")
    size = max(max(abs(x) for x in parts[:4]), math.sqrt(max(abs(x) for x in parts[4:])))
    if size == 0.0:
        return 0.0
    # z1/s, z2/s, z3/s^2 with s = 2^e, exactly
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
    try:
        return math.ldexp(0.5 * (lo + hi), e)
    except OverflowError:
        raise DomainError("rho_functional exceeds the float range") from None
