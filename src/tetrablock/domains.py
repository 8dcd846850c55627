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
for |l| <= 1.  ``rho_functional`` is the gauge of that scaling, in closed
form: the boundary case of the same criterion for the scaled point is a
quadratic equation, solved at every floating-point scale to a few ulps.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

import numpy as np

from .errors import DomainError, PoleError
from .hyperbolic import largest, least, modulus

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


class _Point:
    """The coordinate tuple of a point: construction, ``_make`` (so also
    ``_replace``) and ``of`` pass every coordinate through ``as_coordinate``.
    A point equals, and hashes like, the plain tuple of its coordinates."""

    __slots__ = ()

    def __new__(cls, *coordinates):
        return super().__new__(cls, *map(as_coordinate, coordinates))

    @classmethod
    def _make(cls, coordinates):
        return cls(*coordinates)

    @classmethod
    def of(cls, value):
        return value if isinstance(value, cls) else cls._make(value)

    def as_tuple(self):
        return self


class TetraPoint(_Point, namedtuple("TetraPoint", "z1 z2 z3")):
    """A point (z1, z2, z3) of C^3 (or an array of sample points), classified
    against the tetrablock."""

    __slots__ = ()


class G2Point(_Point, namedtuple("G2Point", "s p")):
    """A point (s, p) of C^2 (or an array of sample points) classified
    against the symmetrized bidisc."""

    __slots__ = ()


@dataclass(frozen=True)
class MembershipReport:
    location: Location
    e_value: float


@dataclass(frozen=True)
class G2MembershipReport:
    location: Location
    max_root_modulus: float
    roots: Tuple[complex, complex]


def _has_array(z1, z2, z3) -> bool:
    return isinstance(z1, np.ndarray) or isinstance(z2, np.ndarray) or isinstance(z3, np.ndarray)


def e_value_raw(z1, z2, z3):
    """Defining functional of the tetrablock; accepts scalars or arrays.

    The coordinates go through ``as_coordinate``, so a scalar point, numpy
    scalars too, is computed in Python arithmetic, which overflows to inf
    without a warning; arrays overflow to inf under ``np.errstate``,
    silently too.  Python's complex modulus can differ from numpy's in the
    last bit, so a point and its block may too."""
    z1, z2, z3 = as_coordinate(z1), as_coordinate(z2), as_coordinate(z3)
    if _has_array(z1, z2, z3):
        with np.errstate(over="ignore"):
            return _e_value(z1, z2, z3)
    return _e_value(z1, z2, z3)


def _e_value(z1, z2, z3):
    # a product, not ** 2: a Python float power raises OverflowError where
    # the product gives inf
    r3 = modulus(z3)
    return (modulus(z1 - z2.conjugate() * z3)
            + modulus(z2 - z1.conjugate() * z3)
            + r3 * r3)


def tetra_e_value(z) -> float:
    """|z1 - conj(z2) z3| + |z2 - conj(z1) z3| + |z3|^2, always >= 0, of a
    scalar point (a block goes to ``e_value_raw``)."""
    z = TetraPoint.of(z)
    return float(_e_value(z.z1, z.z2, z.z3))


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
    return MembershipReport(_classify(e, tol), e)


def is_interior(z) -> bool:
    return tetra_e_value(z) < 1.0 - DEFAULT_BOUNDARY_TOL


#: the largest real or imaginary part of a coordinate that the family maps
#: (``psi_eta`` and those of ``extremals``) accept.  Below it, with their
#: poles kept 1e-14 away, no value or derivative of theirs overflows, so
#: none is NaN
MAP_COORDINATE_MAX = 1e100


def require_map_point(point):
    """Reject a point (or an array point) with a coordinate part beyond
    ``MAP_COORDINATE_MAX`` in absolute value, or NaN, with ``DomainError``.
    An array coordinate whose squared moduli sum to at most a quarter of
    ``MAP_COORDINATE_MAX`` squared (one BLAS pass, ``np.vdot``) has no such
    part; any other is read part by part."""
    for c in point:
        if isinstance(c, np.ndarray) and np.vdot(c, c).real <= _MAP_SQUARES_MAX:
            continue
        if not (largest(abs(c.real)) <= MAP_COORDINATE_MAX
                and largest(abs(c.imag)) <= MAP_COORDINATE_MAX):
            raise DomainError(f"coordinate parts must lie within {MAP_COORDINATE_MAX:g}, got {c}")


#: a quarter of ``MAP_COORDINATE_MAX`` squared: a block whose rounded sum of
#: squared moduli is at most this has no part beyond the bound
_MAP_SQUARES_MAX = MAP_COORDINATE_MAX ** 2 / 4


def psi_eta(eta, z):
    """The rational membership family (eta z3 - z2) / (eta z1 - 1).

    Requires eta in the closed disc, eta z1 != 1 and the coordinate parts
    within ``MAP_COORDINATE_MAX``; on interior points the value has modulus
    < 1.
    Array etas and array points broadcast against each other and give an
    array of values.  A scalar eta and point are checked without numpy.
    """
    z = TetraPoint.of(z)
    require_map_point(z)
    eta = as_coordinate(eta)
    eta_max = largest(modulus(eta))
    if not eta_max <= 1.0 + 1e-12:
        raise DomainError(f"eta must lie in the closed disc, got |eta| = {eta_max}")
    den = eta * z.z1 - 1.0
    # |den| >= 1 - |eta| |z1|, so the sample-by-sample test runs only when
    # that bound does not already clear the pole
    if 1.0 - eta_max * largest(modulus(z.z1)) < _POLE_TOL and least(modulus(den)) < _POLE_TOL:
        raise PoleError(f"psi_eta pole: |eta*z1 - 1| = {least(modulus(den))}")
    return (eta * z.z3 - z.z2) / den


def psi_sup(z):
    """sup over |eta| = 1 of |Psi_eta(z)|, the H-infinity norm of Psi(., z)
    (Abouhajar, White and Young, J. Geom. Anal. 2007, Thm 2.2).

    For |z1| < 1 the circle |eta| = 1 maps onto the circle of centre
    (z2 - conj(z1) z3) / (1 - |z1|^2) and radius |z1 z2 - z3| / (1 - |z1|^2);
    the sum of both moduli is taken over (1 - |z1|)(1 + |z1|), accurate as
    |z1| -> 1.  The value is < 1 exactly when the defining functional is.
    Array points give one supremum per sample, a scalar point a float.  Both
    run one kernel on real and imaginary parts, a point in Python floats and
    a block in numpy, in one order of operations and with one modulus rule
    (``_hypot``), so a point gives the same bits as its block at every scale
    from subnormal up.  A value beyond the float range is inf, without a
    warning.
    """
    z1, z2, z3 = TetraPoint.of(z).as_tuple()
    if not _has_array(z1, z2, z3):
        r1 = _hypot(z1.real, z1.imag)
        if r1 >= 1.0:
            raise DomainError(f"psi_sup requires |z1| < 1, got {r1}")
        return _psi_value(z1, z2, z3, r1, _hypot)
    z1, z2, z3 = np.broadcast_arrays(z1, z2, z3)
    with np.errstate(over="ignore"):
        r1 = _hypot_block(z1.real, z1.imag)
        if largest(r1 >= 1.0):
            raise DomainError(f"psi_sup requires |z1| < 1, got {largest(r1)}")
        return _psi_value(z1, z2, z3, r1, _hypot_block)


#: the sums of squares at which sqrt(x^2 + y^2) is a modulus to an ulp: the
#: larger square is a normal float, and nothing overflowed.  On a block
#: ``psi_sup`` takes a third of the time it takes with ``np.hypot``
#: throughout, so ``hypot`` is kept for the rest
_SQUARES_MIN, _SQUARES_MAX = 2.0 ** -968, sys.float_info.max


def _hypot(x: float, y: float) -> float:
    """The modulus of x + i y: sqrt(x^2 + y^2) where the squares keep their
    bits, else the C library's ``hypot`` (Python's complex modulus, as
    ``np.hypot`` is; ``math.hypot`` rounds differently)."""
    squares = x * x + y * y
    if _SQUARES_MIN <= squares <= _SQUARES_MAX:
        return math.sqrt(squares)
    return modulus(complex(x, y))


def _hypot_block(x, y):
    """``_hypot`` of arrays, entry by entry, with the same bits."""
    squares = x * x + y * y
    out = np.sqrt(squares)
    if not (least(squares) >= _SQUARES_MIN and largest(squares) <= _SQUARES_MAX):
        far = ~((squares >= _SQUARES_MIN) & (squares <= _SQUARES_MAX))
        out[far] = np.hypot(x[far], y[far])
    return out


def _psi_value(z1, z2, z3, r1, hypot):
    """The closed form of ``psi_sup`` from z1, z2, z3 (Python complex numbers
    or complex arrays), r1 = |z1| and the matching ``hypot``.  The centre
    z2 - conj(z1) z3 and q = z1 z2 - z3 are formed part by part, as Python
    multiplies complex numbers (numpy's complex product may fuse a multiply
    and an add), so a block rounds them as its points do."""
    x1, y1, x2, y2, x3, y3 = z1.real, z1.imag, z2.real, z2.imag, z3.real, z3.imag
    centre = hypot(x2 - (x1 * x3 + y1 * y3), y2 - (x1 * y3 - y1 * x3))
    radius = hypot(x1 * x2 - y1 * y2 - x3, x1 * y2 + y1 * x2 - y3)
    return (centre + radius) / ((1.0 - r1) * (1.0 + r1))


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
    return G2MembershipReport(_classify(worst, tol), worst, roots)


def rho_functional(z):
    """Quasi-homogeneous gauge of the tetrablock.

    rho(z) is the infimum of t > 0 such that (z1/t, z2/t, z3/t^2) lies in
    the closed domain; rho(0) = 0.  It scales as
    rho(l z1, l z2, l^2 z3) = |l| rho(z) and satisfies rho(z) < 1 iff z is
    interior.  At t = rho the criterion of Abouhajar, White and Young
    (``psi_sup`` < 1 at the scaled point, times t^3) holds with equality:

        |z2 D + conj(z1) q| = t (D - c),  D = t^2 - |z1|^2,  q = z1 z2 - z3,  c = |q|.

    Squared, this is a cubic in D whose constant term cancels; with
    D = c + u, what is left is the quadratic
    u^2 + (|z1|^2 - |z2|^2) u - c |z1 + conj(z2) q / c|^2 = 0, whose root
    u >= 0 gives

        rho^2 = c + (|z1|^2 + |z2|^2
                     + sqrt((|z2|^2 - |z1|^2)^2 + 4 c |z1 + conj(z2) q / c|^2)) / 2,

    a sum of non-negative terms (the last one is 0 where c = 0), accurate to
    a few ulps, also on the product points (a, b, ab).  It is the norm of
    the symmetric lift [[z1, s], [s, z2]], s^2 = q: the lift's Gram matrix
    has diagonal |z1|^2 + c and |z2|^2 + c and an off-diagonal entry of
    modulus sqrt(c) |z1 + conj(z2) q / c|, and rho^2 above is its larger
    eigenvalue.  Near a double root (z3 = z1 z2, |z1| = |z2|) the gauge is
    as sensitive as a square root to the rounding of q, as any evaluation
    from the float point is.  The point is first
    scaled by a power of two, exactly by quasi-homogeneity, so nothing
    underflows or overflows.  A scalar point stays in Python arithmetic and
    gives a float; an array point gives one gauge per sample.  Both run one
    real-arithmetic kernel, so a point gives the same bits as its block.
    Non-finite coordinates and a gauge beyond the float range raise
    ``DomainError``.
    """
    z1, z2, z3 = TetraPoint.of(z).as_tuple()
    parts = (z1.real, z1.imag, z2.real, z2.imag, z3.real, z3.imag)
    if not _has_array(z1, z2, z3):
        if not all(map(math.isfinite, parts)):
            raise DomainError("rho_functional needs finite coordinates")
        x1, y1, x2, y2, x3, y3 = parts
        # z1/s, z2/s, z3/s^2 with s = 2^e, exactly; frexp(0) = (0, 0)
        e = math.frexp(max(abs(x1), abs(y1), abs(x2), abs(y2),
                           math.sqrt(max(abs(x3), abs(y3)))))[1]
        ldexp = math.ldexp
        try:
            return ldexp(_gauge_value(ldexp(x1, -e), ldexp(y1, -e), ldexp(x2, -e),
                                      ldexp(y2, -e), ldexp(x3, -2 * e), ldexp(y3, -2 * e),
                                      _hypot, math.sqrt), e)
        except OverflowError:
            raise DomainError("rho_functional exceeds the float range") from None
    parts = np.broadcast_arrays(*parts)
    if not all(np.isfinite(x).all() for x in parts):
        raise DomainError("rho_functional needs finite coordinates")
    e = np.frexp(np.maximum.reduce([np.abs(x) for x in parts[:4]]
                                   + [np.sqrt(np.maximum(np.abs(parts[4]), np.abs(parts[5])))]))[1]
    scaled = [np.ldexp(x, -n * e) for x, n in zip(parts, (1, 1, 1, 1, 2, 2))]
    with np.errstate(over="ignore"):
        rho = np.ldexp(_gauge_value(*scaled, _hypot_block, np.sqrt), e)
    if np.isinf(rho).any():
        raise DomainError("rho_functional exceeds the float range")
    return rho


_SMALLEST_NORMAL = sys.float_info.min


def _gauge_value(x1, y1, x2, y2, x3, y3, hypot, sqrt):
    """The closed form of ``rho_functional`` from the real and imaginary
    parts of z1, z2 and z3, scaled to parts below 1 (those of z3 below 1 in
    square root): Python floats with ``_hypot`` and ``math.sqrt`` for a
    point, arrays with ``_hypot_block`` and ``np.sqrt`` for a block.  Both
    take the same real operations in the same order, so a point gives the
    same bits as its block; that matters near a double root, where
    q = z1 z2 - z3 cancels and the gauge is as sensitive as a square root
    to its rounding."""
    qx, qy = x1 * x2 - y1 * y2 - x3, x1 * y2 + y1 * x2 - y3
    c = hypot(qx, qy)
    # w = z1 + conj(z2) q / c.  Below the smallest normal float, divide by 1
    # instead of c: q = 0 where c = 0, and a subnormal c leaves 4 c |w|^2
    # far below the rounding of the other terms (some part is at least 1/2
    # after the scaling)
    den = c + (c < _SMALLEST_NORMAL)
    wx = x1 + (x2 * qx + y2 * qy) / den
    wy = y1 + (x2 * qy - y2 * qx) / den
    s1, s2 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
    d = s2 - s1
    return sqrt(c + 0.5 * (s1 + s2 + sqrt(d * d + 4.0 * c * (wx * wx + wy * wy))))
