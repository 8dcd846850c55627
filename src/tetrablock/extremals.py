"""Analytic function families on the tetrablock and the symmetrized bidisc,
and the distance-type quantities built from them.

The families shipped here map the domains holomorphically into the unit
disc, so any Mobius distance between their values at two points is a
certified lower bound for the Caratheodory pseudodistance of the pair.  The
supremum of the Psi-family bounds (with and without the coordinate swap) is
exposed separately as ``p_e``; it is always dominated by the full lower
bound, and on some pairs it is *strictly* smaller -- the separation that the
``magic_f`` map detects.  The Psi-family maxima over the unimodular
parameter are exact: they are taken at the roots of a sextic.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Tuple

import numpy as np

from .domains import (DEFAULT_BOUNDARY_TOL, G2Point, TetraPoint, as_coordinate,
                      is_interior, psi_eta)
from .errors import BranchError, DomainError, PoleError
from .hyperbolic import HyperbolicDistance, mobius_m, require_unimodular

_POLE_TOL = 1e-14


def _least(values):
    """The smallest entry of an array, or a scalar itself: guards on array
    points test every sample."""
    return values.min() if isinstance(values, np.ndarray) else values


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
    if _least(d.real) <= 0.0:
        raise BranchError(f"Re(1 + z3 - z1 z2) = {_least(d.real)} <= 0; input not interior")
    return z.z2 / _sqrt(d)


def g2_f(omega: complex, w) -> complex:
    """The symmetrized-bidisc family (2 omega p - s) / (2 - omega s)."""
    omega = require_unimodular(omega)
    w = G2Point.of(w)
    den = 2.0 - omega * w.s
    if _least(abs(den)) < _POLE_TOL:
        raise PoleError(f"g2_f pole: |2 - omega*s| = {_least(abs(den))}")
    return (2.0 * omega * w.p - w.s) / den


# ---------------------------------------------------------------------------
# gradient-equipped function objects (used by the necessary-condition checker)
# ---------------------------------------------------------------------------


class PsiOmegaMap:
    """Psi_eta as a map on C^3, optionally precomposed with the coordinate
    swap and postmultiplied by a unimodular factor.

    ``factor * Psi_eta(sigma^k z)`` with k in {0, 1}; carries closed-form
    partial derivatives.
    """

    def __init__(self, eta: complex, *, swap_first: bool = False, factor: complex = 1.0):
        self.eta = complex(eta)
        self.swap_first = bool(swap_first)
        self.factor = complex(factor)

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
        if _least(abs(den)) < _POLE_TOL:
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
        if _least(d.real) <= 0.0:
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
        if _least(abs(den)) < _POLE_TOL:
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


@dataclass(frozen=True)
class ExtremalFamilyId:
    """A family tag, optionally pinned to one member by a unimodular omega."""

    tag: ExtremalFamily
    parameter: Optional[complex] = None

    def __post_init__(self):
        if self.parameter is not None:
            object.__setattr__(self, "parameter", require_unimodular(self.parameter))


def _psi_family_bound(w: TetraPoint, z: TetraPoint, swap: bool,
                      parameter: Optional[complex]) -> float:
    """m(Psi_eta(w), Psi_eta(z)) at the pinned eta, else its maximum on |eta| = 1.

    On the circle m = |A(eta)| / |B(eta)| (a prime marks the conjugate):
        A = (w2 - z2) + (z3 - w3 + z2 w1 - w2 z1) eta + (w3 z1 - z3 w1) eta^2
        B = (w3' z2 - w1') + (1 + w1' z1 - w3' z3 - w2' z2) eta + (w2' z3 - z1) eta^2
    With a = eta^2 |A|^2 and b = eta^2 |B|^2 (degree 4), the maximizers are
    unimodular roots of a' b - a b' (degree <= 6); m is taken at eta = 1 and
    at every root projected to the circle, so the value is attained.
    """
    if swap:
        w, z = sigma(w), sigma(z)
    if parameter is not None:
        return mobius_m(psi_eta(parameter, w), psi_eta(parameter, z))
    wc1, wc2, wc3 = w.z1.conjugate(), w.z2.conjugate(), w.z3.conjugate()
    A = np.array([w.z2 - z.z2, z.z3 - w.z3 + z.z2 * w.z1 - w.z2 * z.z1,
                  w.z3 * z.z1 - z.z3 * w.z1])
    B = np.array([wc3 * z.z2 - wc1, 1.0 + wc1 * z.z1 - wc3 * z.z3 - wc2 * z.z2,
                  wc2 * z.z3 - z.z1])
    # eta^2 |P|^2 is P times its reversed conjugate; coefficients ascend
    a, b = np.convolve(A, A[::-1].conj()), np.convolve(B, B[::-1].conj())
    order = np.arange(1, 5)
    crit = np.convolve(a[1:] * order, b) - np.convolve(a, b[1:] * order)
    # the degree-7 term cancels, so np.roots gets degrees 6..0.  End
    # coefficients below 1e-14 of the largest are rounding noise: leading
    # ones throw the other roots far off, trailing ones only add roots near
    # 0, whose angle means nothing (eta = 1 is taken anyway)
    coeffs = crit[6::-1]
    kept = np.flatnonzero(np.abs(coeffs) >= 1e-14 * np.abs(coeffs).max())
    eta = np.exp(1j * np.angle(np.append(np.roots(coeffs[kept[0]:kept[-1] + 1]), 1.0)))
    return float(np.max(mobius_m(psi_eta(eta, w), psi_eta(eta, z))))


TETRABLOCK_FAMILIES = (ExtremalFamily.PSI_OMEGA, ExtremalFamily.PSI_OMEGA_SIGMA,
                       ExtremalFamily.MAGIC_F)


def _family_bound(fid: ExtremalFamilyId, w: TetraPoint, z: TetraPoint) -> float:
    if fid.tag is ExtremalFamily.PSI_OMEGA:
        return _psi_family_bound(w, z, False, fid.parameter)
    if fid.tag is ExtremalFamily.PSI_OMEGA_SIGMA:
        return _psi_family_bound(w, z, True, fid.parameter)
    if fid.tag is ExtremalFamily.MAGIC_F:
        # magic_f o sigma makes the bound sigma-invariant
        return max(mobius_m(magic_f(w), magic_f(z)),
                   mobius_m(magic_f(sigma(w)), magic_f(sigma(z))))
    raise DomainError(f"family {fid.tag.value} does not apply to tetrablock points")


def _resolve_family(entry) -> ExtremalFamilyId:
    if isinstance(entry, ExtremalFamilyId):
        return entry
    if isinstance(entry, ExtremalFamily):
        return ExtremalFamilyId(entry)
    if isinstance(entry, str):
        return ExtremalFamilyId(ExtremalFamily(entry))
    raise DomainError(f"unrecognized family spec: {entry!r}")


def _require_interior_pair(w, z) -> Tuple[TetraPoint, TetraPoint]:
    w = TetraPoint.of(w)
    z = TetraPoint.of(z)
    for name, point in (("w", w), ("z", z)):
        if not is_interior(point, DEFAULT_BOUNDARY_TOL):
            raise DomainError(f"{name} must be interior to the tetrablock")
    return w, z


def p_e(w, z) -> HyperbolicDistance:
    """sup over unimodular omega of the Psi-family distances, with and
    without the coordinate swap applied to both arguments.

    A lower bound for the Caratheodory pseudodistance of the pair; dominated
    by ``caratheodory_lower_bound`` whenever both Psi families are included
    there.
    """
    w, z = _require_interior_pair(w, z)
    plain = _psi_family_bound(w, z, False, None)
    swapped = _psi_family_bound(w, z, True, None)
    return HyperbolicDistance.from_m(max(plain, swapped))


def caratheodory_lower_bound(w, z, families: Iterable = TETRABLOCK_FAMILIES
                             ) -> HyperbolicDistance:
    """Best certified Caratheodory lower bound over the given families.

    Each family contributes the Mobius distance of its values (maximized
    over the unimodular parameter where one exists); the result is reported
    as a lower bound, never as the pseudodistance itself.
    """
    family_ids = [_resolve_family(f) for f in families]
    if not family_ids:
        raise DomainError("families must be nonempty")
    w, z = _require_interior_pair(w, z)
    best = 0.0
    for fid in family_ids:
        best = max(best, float(_family_bound(fid, w, z)))
    return HyperbolicDistance.from_m(best)

