"""Analytic-disc constructions in the tetrablock and the symmetrized bidisc:
the origin-geodesic family, general in-domain discs, boundary discs, product
discs, disc transport, transported extremals, and the closed-form / search
machinery for Lempert-function values, and the pair report that holds a
pair's lower bounds against its upper bound.

The origin-geodesic family through 0 is

    f(lam) = (w1 (phi(lam) + C)/(1 + C),
              w2 lam (1 + C phi(lam))/(1 + C),
              w1 w2 lam phi(lam)),

with phi a self-map of the closed disc, phi(0) = -C, C in [0, 1] and w1, w2
unimodular.  Composing with Psi_{conj(w1)} and dividing by w2 recovers the
disc parameter exactly, which is the left-inverse certificate used
throughout: every such disc realizes equality of the Lempert function and
the Caratheodory pseudodistance against the origin.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .domains import (DEFAULT_BOUNDARY_TOL, G2Point, TetraPoint, e_value_raw,
                      g2_roots, is_interior, psi_eta, psi_sup,
                      stable_quadratic_roots)
from .errors import DomainError, PoleError
from .extremals import (PSI_FAMILIES, TETRABLOCK_FAMILIES, ExtremalFamily,
                        PsiOmegaMap, family_bounds, sigma)
from .hyperbolic import (TOL_CLOSURE, BlaschkeMap, HyperbolicDistance, largest,
                         least, mobius_m, require_disc_point, require_interval,
                         require_unimodular)

#: deterministic sampling pattern used for residual and membership sweeps
DEFAULT_RADII: Tuple[float, ...] = tuple(round(0.1 * k, 1) for k in range(1, 10))
DEFAULT_N_ANGLES = 16


def sample_grid(radii: Sequence[float] = DEFAULT_RADII,
                n_angles: int = DEFAULT_N_ANGLES) -> np.ndarray:
    """Roots of unity scaled by the given radii, radius by radius, as one
    complex array in a deterministic order."""
    roots = np.exp(2j * math.pi * np.arange(n_angles) / n_angles)
    return (np.asarray(radii, dtype=float)[:, None] * roots).ravel()


def _nonempty_grid(radii: Sequence[float], n_angles: int) -> np.ndarray:
    lams = sample_grid(radii, n_angles)
    if lams.size == 0:
        raise DomainError("the sample grid is empty: need radii and n_angles >= 1")
    return lams


def _require_phi_open(phi: BlaschkeMap, name: str = "phi") -> BlaschkeMap:
    if phi.is_constant and largest(abs(phi.constant_offset)) >= 1.0:
        raise DomainError(f"{name} must map into the open disc")
    return phi


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------
#
# Each record may hold a stack of n discs: C and the unimodular parameters
# are then arrays of shape (n, 1), the maps stacked BlaschkeMaps of one
# degree each, and every rule is checked entry by entry.  The evaluators
# below then give (n, m) arrays at m points.


@dataclass(frozen=True)
class OriginGeodesicParams:
    """Parameters of the origin-geodesic family: C in [0, 1], unimodular
    w1, w2, and phi into the closed disc with phi(0) = -C."""

    C: float
    omega1: complex
    omega2: complex
    phi: BlaschkeMap

    def __post_init__(self):
        c = require_interval(self.C, 0.0, 1.0, name="C")
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "omega1", require_unimodular(self.omega1, name="omega1"))
        object.__setattr__(self, "omega2", require_unimodular(self.omega2, name="omega2"))
        phi0 = self.phi(0.0)
        if largest(abs(phi0 + c)) > 1e-12:
            raise DomainError(f"phi(0) must equal -C; got phi(0) = {phi0}, C = {c}")
        if largest(c) > 1.0 - 1e-12 and not self.phi.is_constant:
            # the closed-disc constraint pins phi identically to -1 here
            raise DomainError("C = 1 forces a constant phi = -1")

    def split(self) -> List["OriginGeodesicParams"]:
        """The records of a stack one by one, as scalar records in stack
        order; a scalar record gives a list of one, and a scalar phi shared
        by a stack is the phi of every member."""
        phis = self.phi.split()
        C, omega1, omega2, _ = (x.ravel() for x in np.broadcast_arrays(
            self.C, self.omega1, self.omega2, np.zeros((len(phis), 1))))
        phis = phis * (C.size // len(phis))
        return [OriginGeodesicParams(*fields) for fields in zip(C, omega1, omega2, phis)]


@dataclass(frozen=True)
class GeneralDiscParams:
    """Parameters of the general in-domain disc family: C in [0, 1) and two
    self-maps of the open disc (no value constraint at 0)."""

    C: float
    omega1: complex
    omega2: complex
    phi: BlaschkeMap
    psi: BlaschkeMap

    def __post_init__(self):
        c = require_interval(self.C, 0.0, 1.0, name="C")
        if largest(c) >= 1.0:
            raise DomainError(f"C must lie in [0, 1), got {c}")
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "omega1", require_unimodular(self.omega1, name="omega1"))
        object.__setattr__(self, "omega2", require_unimodular(self.omega2, name="omega2"))
        _require_phi_open(self.phi, "phi")
        _require_phi_open(self.psi, "psi")


@dataclass(frozen=True)
class G2GeodesicParams:
    """Origin geodesics of the symmetrized bidisc: C in [1, 2], unimodular
    omega."""

    C: float
    omega: complex

    def __post_init__(self):
        object.__setattr__(self, "C", require_interval(self.C, 1.0, 2.0, name="C"))
        object.__setattr__(self, "omega", require_unimodular(self.omega))


# ---------------------------------------------------------------------------
# disc evaluators
# ---------------------------------------------------------------------------


def disc_coords(C: float, omega1: complex, omega2: complex, phival, psival):
    """The disc formula shared by every tetrablock family:

        (w1 (phi + C)/(1 + C), w2 psi (1 + C phi)/(1 + C), w1 w2 phi psi)

    at values phi = phi(lam), psi = psi(lam); broadcasts over arrays.  Origin
    geodesics take psi = lam, boundary discs psi = 1, and general discs a
    second self-map psi.
    """
    f1 = omega1 * (phival + C) / (1.0 + C)
    f2 = omega2 * psival * (1.0 + C * phival) / (1.0 + C)
    f3 = omega1 * omega2 * phival * psival
    return f1, f2, f3


def origin_geodesic_disc(p: OriginGeodesicParams) -> Callable[[complex], TetraPoint]:
    """The origin geodesic as a map of lam, a scalar or an array."""
    return lambda lam: TetraPoint(*disc_coords(p.C, p.omega1, p.omega2, p.phi(lam), lam))


def eval_origin_geodesic(p: OriginGeodesicParams, lam: complex) -> TetraPoint:
    """Evaluate the origin geodesic at a point of the open disc; f(0) = 0."""
    return origin_geodesic_disc(p)(require_disc_point(lam, name="lam"))


def certified_left_inverse(p: OriginGeodesicParams, *, swapped: bool = False) -> PsiOmegaMap:
    """The left inverse conj(w2) * Psi_{conj(w1)} certifying the geodesic.

    With ``swapped`` the inverse is precomposed with the coordinate swap,
    matching discs of the form sigma o f.
    """
    return PsiOmegaMap(p.omega1.conjugate(), swap_first=swapped,
                       factor=p.omega2.conjugate())


def general_disc(p: GeneralDiscParams) -> Callable[[complex], TetraPoint]:
    """The general disc as a map of lam, a scalar or an array."""
    return lambda lam: TetraPoint(*disc_coords(p.C, p.omega1, p.omega2, p.phi(lam), p.psi(lam)))


def eval_general_disc(p: GeneralDiscParams, lam: complex) -> TetraPoint:
    """Evaluate the general disc; its image always stays inside the domain,
    and the disc is a geodesic whenever psi is a disc automorphism."""
    return general_disc(p)(require_disc_point(lam, name="lam"))


def boundary_disc(C: float, omega1: complex, omega2: complex,
                  phi: BlaschkeMap) -> Callable[[complex], TetraPoint]:
    """A non-constant analytic disc lying entirely on the boundary, as a map
    of lam (a scalar or an array).

    The defining functional evaluates to (1 - |phi|^2) + |phi|^2 = 1
    identically, so the image sits on the boundary at every point.
    """
    C = require_interval(C, 0.0, 1.0, name="C")
    omega1 = require_unimodular(omega1, name="omega1")
    omega2 = require_unimodular(omega2, name="omega2")
    _require_phi_open(phi)
    return lambda lam: TetraPoint(*disc_coords(C, omega1, omega2, phi(lam), 1.0))


def eval_boundary_disc(C: float, omega1: complex, omega2: complex,
                       phi: BlaschkeMap, lam: complex) -> TetraPoint:
    """Evaluate the boundary disc at a point of the open disc."""
    return boundary_disc(C, omega1, omega2, phi)(require_disc_point(lam, name="lam"))


def product_disc(a: BlaschkeMap, b: BlaschkeMap, lam: complex) -> TetraPoint:
    """The disc lam -> (a(lam), b(lam), a(lam) b(lam)).

    Its image lies in the slice {z1 z2 = z3}; the disc is a geodesic when
    one of the factors is a disc automorphism (see ``is_product_geodesic``).
    """
    _require_phi_open(a, "a")
    _require_phi_open(b, "b")
    lam = require_disc_point(lam, name="lam")
    av, bv = a(lam), b(lam)
    return TetraPoint(av, bv, av * bv)


def is_product_geodesic(a: BlaschkeMap, b: BlaschkeMap) -> bool:
    return a.is_automorphism or b.is_automorphism


# ---------------------------------------------------------------------------
# residuals and verification
# ---------------------------------------------------------------------------


def left_inverse_residual(f: Callable, F: Callable, *,
                          radii: Sequence[float] = DEFAULT_RADII,
                          n_angles: int = DEFAULT_N_ANGLES) -> float:
    """max over the sampling grid of |F(f(lam)) - lam|, from one call of f
    and one of F on the whole grid array; for a stack of discs, an (n, 1)
    array with the residual of each."""
    lams = _nonempty_grid(radii, n_angles)
    gaps = np.abs(F(f(lams)) - lams)
    return gaps.max(axis=-1, keepdims=True) if gaps.ndim > 1 else float(gaps.max())


class DiscVerdict(Enum):
    GEODESIC_VERIFIED = "geodesic-verified"
    IN_DOMAIN_ONLY = "in-domain-only"
    FAILED = "failed"


@dataclass(frozen=True)
class DiscVerificationReport:
    """Outcome of a disc sweep: worst in-domain functional value, left
    inverse residual (inf when no left inverse was supplied), and verdict."""

    max_e_value: float
    left_inverse_residual: float
    samples: int
    verdict: DiscVerdict


def verify_disc(f: Callable, F: Optional[Callable] = None, *,
                domain: str = "tetrablock",
                radii: Sequence[float] = DEFAULT_RADII,
                n_angles: int = DEFAULT_N_ANGLES) -> DiscVerificationReport:
    """Sweep a disc for membership and (optionally) a left-inverse identity.

    Verdict: GEODESIC_VERIFIED needs the image inside the open domain and
    residual below 1e-10; without a left inverse the best verdict is
    IN_DOMAIN_ONLY.  f and F are each called once, on the whole grid array;
    an empty grid raises DomainError.
    """
    lams = _nonempty_grid(radii, n_angles)
    point = f(lams)
    if domain == "tetrablock":
        worst_e = float(np.max(e_value_raw(*TetraPoint.of(point))))
    elif domain == "g2":
        worst_e = float(np.max(np.abs(g2_roots(point)[0])))
    else:
        raise DomainError(f"unknown domain {domain!r}")
    in_domain = worst_e < 1.0
    if F is None:
        verdict = DiscVerdict.IN_DOMAIN_ONLY if in_domain else DiscVerdict.FAILED
        return DiscVerificationReport(worst_e, math.inf, lams.size, verdict)
    residual = float(np.max(np.abs(F(point) - lams)))
    if in_domain and residual < 1e-10:
        verdict = DiscVerdict.GEODESIC_VERIFIED
    else:
        verdict = DiscVerdict.FAILED
    return DiscVerificationReport(worst_e, residual, lams.size, verdict)


# ---------------------------------------------------------------------------
# disc transport
# ---------------------------------------------------------------------------


class TransportClass(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    MIXED = "mixed"


def _divided_by_lam(lam, value: TetraPoint, at_zero: TetraPoint) -> TetraPoint:
    """(z1/lam, z2, z3/lam) of a disc value, taking ``at_zero`` where lam
    vanishes; lam may be a scalar or an array.  The fill runs only when some
    sample vanishes, which no sample grid does: there it would copy three
    whole blocks for nothing."""
    small = np.abs(lam) < 1e-12
    safe = np.where(small, 1.0, lam)
    coords = (value.z1 / safe, value.z2, value.z3 / safe)
    if np.any(small):
        coords = (np.where(small, fill, c) for fill, c in zip(at_zero, coords))
    return TetraPoint(*coords)


#: the band around 1 of the defining functional of a boundary disc
_TRANSPORT_BOUNDARY_TOL = 1e-8


class TransportedDisc:
    """The transported disc (f1(lam)/lam, f2(lam), f3(lam)/lam).

    Requires f1(0) = f3(0) = 0; the removable singularity at 0 is filled by
    derivative values computed as the discrete circle mean of f_j(z)/z
    (radius 1e-5, 64 points), which annihilates every Taylor mode below
    order 64 and is therefore exact to machine precision for analytic input.
    The image lies either entirely inside the domain or entirely on its
    boundary (to 1e-8); ``classify`` reports which.  f must accept arrays of
    lam, and so does the transported disc.  f may be a stack of n discs,
    whose value at 0 has coordinates of shape (n, 1): every mean and maximum
    then runs along the last (sample) axis, one per disc.
    """

    def __init__(self, f: Callable[[complex], TetraPoint]):
        self._f = f
        origin = TetraPoint.of(f(0.0))
        if largest(abs(origin.z1)) > 1e-12 or largest(abs(origin.z3)) > 1e-12:
            raise DomainError("transport needs f1(0) = f3(0) = 0")
        nodes = 1e-5 * np.exp(2j * math.pi * np.arange(64) / 64)
        value = TetraPoint.of(f(nodes))
        stacked = value.z1.ndim > 1
        self._at_zero = TetraPoint(np.mean(value.z1 / nodes, axis=-1, keepdims=stacked),
                                   origin.z2,
                                   np.mean(value.z3 / nodes, axis=-1, keepdims=stacked))

    @property
    def value_at_zero(self) -> TetraPoint:
        return self._at_zero

    def __call__(self, lam) -> TetraPoint:
        return _divided_by_lam(lam, TetraPoint.of(self._f(lam)), self._at_zero)

    def classify(self, *, n_angles: int = DEFAULT_N_ANGLES):
        """The TransportClass of the disc from the defining functional on the
        grid and at 0; for a stack, an array with the class of each disc."""
        values = np.concatenate([e_value_raw(*self(sample_grid(DEFAULT_RADII, n_angles))),
                                 np.atleast_1d(e_value_raw(*self._at_zero))], axis=-1)
        verdict = np.select([np.max(np.abs(values - 1.0), axis=-1) <= _TRANSPORT_BOUNDARY_TOL,
                             np.max(values, axis=-1) < 1.0 - _TRANSPORT_BOUNDARY_TOL],
                            [TransportClass.BOUNDARY, TransportClass.INTERIOR],
                            TransportClass.MIXED)
        return verdict if verdict.ndim else verdict.item()


def transport_disc(f: Callable[[complex], TetraPoint]) -> TransportedDisc:
    """Transport a disc with f1(0) = f3(0) = 0 to (f1/lam, f2, f3/lam)."""
    return TransportedDisc(f)


def transported_extremal(C: float, omega1: complex, omega2: complex,
                         phi: BlaschkeMap, lam: complex) -> TetraPoint:
    """Transported origin geodesic: an extremal disc avoiding {z1 z2 = z3}.

    ``lam -> (w1 (phi(lam)+C)/(lam (1+C)), w2 lam (1+C phi(lam))/(1+C),
    w1 w2 phi(lam))`` for non-automorphism phi with phi(0) = -C, C in (0, 1).
    At 0 the value is (w1 phi'(0)/(1+C), 0, -w1 w2 C), interior because
    |phi'(0)| < 1 - C^2 strictly for non-automorphisms.
    """
    disc = transported_extremal_disc(C, omega1, omega2, phi)
    return disc(lam)


def transported_extremal_disc(C: float, omega1: complex, omega2: complex,
                              phi: BlaschkeMap) -> Callable[[complex], TetraPoint]:
    """The transported extremal as a map of lam (a scalar or an array): the
    origin disc with z1 and z3 divided by lam, and phi'(0) filled in at 0.

    Like the parameter records it may hold a stack of n discs, with C, the
    unimodular parameters and phi as (n, 1) fields checked entry by entry;
    lam of shape (m,) or (n, m) then gives (n, m) coordinates."""
    C = require_interval(C, 0.0, 1.0, name="C")
    if not (0.0 < least(C) and largest(C) < 1.0):
        raise DomainError(f"C must lie in (0, 1), got {C}")
    if np.any(phi.is_automorphism):
        raise DomainError("phi must not be an automorphism")
    omega1 = require_unimodular(omega1, name="omega1")
    omega2 = require_unimodular(omega2, name="omega2")
    if largest(abs(phi(0.0) + C)) > 1e-12:
        raise DomainError("phi(0) must equal -C")
    at_zero = TetraPoint(omega1 * phi.derivative(0.0) / (1.0 + C), 0.0,
                         -omega1 * omega2 * C)

    def evaluate(lam) -> TetraPoint:
        value = TetraPoint(*disc_coords(C, omega1, omega2, phi(lam), lam))
        return _divided_by_lam(lam, value, at_zero)

    return evaluate


# ---------------------------------------------------------------------------
# closed-form Lempert values
# ---------------------------------------------------------------------------


def lempert_special(z: complex, w: complex) -> HyperbolicDistance:
    """Lempert-function value of the pair (0, 0, w), (0, z, w): m-scale
    |z| / (1 - |w|), for |z| + |w| < 1."""
    z = complex(z)
    w = complex(w)
    if abs(z) + abs(w) >= 1.0:
        raise DomainError(f"need |z| + |w| < 1, got {abs(z) + abs(w)}")
    return HyperbolicDistance.from_m(abs(z) / (1.0 - abs(w)))


# ---------------------------------------------------------------------------
# symmetrized bidisc discs
# ---------------------------------------------------------------------------


def _g2_coords(C: float, omega: complex, lam):
    """(s, p, pole) of the two-coordinate disc, entry by entry over lam;
    ``pole`` flags the samples where the denominator vanishes."""
    lam = np.asarray(lam, dtype=complex)
    den1 = omega * lam * (1.0 - C) - 1.0
    den2 = 1.0 - lam * omega * (1.0 - C)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = 2.0 * (2.0 - C) * lam / den1
        p = lam * (lam - omega.conjugate() * (1.0 - C)) / den2
    return s, p, np.abs(den2) < 1e-15


def g2_disc_raw(C: float, omega: complex, lam) -> G2Point:
    """The two-coordinate disc formula without the parameter-window check,
    at a scalar or an array lam.

    Out-of-window C is allowed here so violation witnesses can be hunted;
    inside [1, 2] the denominators are bounded away from zero on the disc.
    """
    s, p, pole = _g2_coords(C, require_unimodular(omega), lam)
    if pole.any():
        raise PoleError("g2 disc pole inside the disc")
    return G2Point(s, p)


def g2_origin_geodesic(p: G2GeodesicParams, lam: complex) -> G2Point:
    """Evaluate the origin geodesic of the symmetrized bidisc; f(0) = (0, 0)."""
    lam = require_disc_point(lam, name="lam")
    return g2_disc_raw(p.C, p.omega, lam)


def g2_geodesic_disc(p: G2GeodesicParams) -> Callable[[complex], G2Point]:
    """The bidisc origin geodesic as a map of lam, a scalar or an array."""
    return lambda lam: g2_disc_raw(p.C, p.omega, lam)


#: the witness search grid: 64 angles on each of 19 radii from 0.05 to 0.95
_WITNESS_GRID = sample_grid(np.linspace(0.05, 0.95, 19), 64)


def g2_violation_witness(C: float, omega: complex) -> Optional[complex]:
    """Grid-search a lam with the out-of-window disc leaving the domain.

    Returns the first witness lam in grid order (a pole, or a root of
    modulus within ``DEFAULT_BOUNDARY_TOL`` of 1 or beyond, counts as one),
    or None when every sample stays interior (the expected outcome for C in
    [1, 2]).
    """
    s, p, pole = _g2_coords(C, require_unimodular(omega), _WITNESS_GRID)
    interior = np.abs(stable_quadratic_roots(s, p)[0]) < 1.0 - DEFAULT_BOUNDARY_TOL
    hits = np.flatnonzero(pole | ~interior)
    return complex(_WITNESS_GRID[hits[0]]) if hits.size else None


# ---------------------------------------------------------------------------
# two-point interpolation with origin constraint
# ---------------------------------------------------------------------------


def blaschke_interp_origin(C: float, lam0: complex, v: complex) -> BlaschkeMap:
    """A BlaschkeMap phi with phi(0) = -C and phi(lam0) = v.

    Feasible exactly when m(-C, v) <= |lam0| (Schwarz-Pick).  The
    construction is scaled degree <= 1: writing phi = s*zeta*(lam - b)/(1 -
    conj(b) lam) with b = (C/s) conj(zeta) enforces phi(0) = -C, and the
    value condition reduces to |x(s)| = r = |lam0| for x(s) = s(v + C)/(s^2
    + vC).  With d = v + C and tau = s^2 - C^2 (so s^2 + vC = tau + C d)
    that is the quadratic

        r^2 tau^2 + (2 r^2 C Re d - |d|^2) tau - |d|^2 C^2 (1 - r^2) = 0,

    whose roots have a negative product for C > 0 and are 0 and |d|^2/r^2
    for C = 0: the scale comes from the larger root, taken in the form that
    avoids cancellation.
    """
    C = require_interval(C, 0.0, 1.0, name="C")
    lam0 = complex(lam0)
    v = complex(v)
    r = abs(lam0)
    if r <= 0.0 or r >= 1.0:
        raise DomainError("lam0 must lie in the punctured open disc")

    if C > 1.0 - 1e-12:
        if abs(v + 1.0) > 1e-8:
            raise DomainError("with C = 1 the only self-map is phi = -1")
        return BlaschkeMap.constant(-1.0)

    m_cv = abs(v + C) / abs(1.0 + C * v)
    if m_cv > r * (1.0 + 1e-9):
        raise DomainError(f"infeasible interpolation: m(-C, v) = {m_cv} > |lam0| = {r}")
    if m_cv < 1e-13:
        return BlaschkeMap.constant(-C)

    # r^2 tau^2 + lin tau - k = 0 with k >= 0
    r2 = r * r
    d = v + C
    dd = abs(d) ** 2
    lin = 2.0 * r2 * C * d.real - dd
    k = dd * C * C * (1.0 - r2)
    root = math.sqrt(lin * lin + 4.0 * r2 * k)
    tau = (root - lin) / (2.0 * r2) if lin <= 0.0 else 2.0 * k / (lin + root)
    # s > 1 only within rounding of the automorphism case
    tau = min(tau, 1.0 - C * C)
    s_star = min(math.sqrt(C * C + tau), 1.0)
    x = s_star * d / (tau + C * d)
    zeta = x / lam0
    zeta /= abs(zeta)
    b = (C / s_star) * zeta.conjugate() if C > 0 else 0.0j
    if abs(b) >= 1.0:
        b *= (1.0 - 1e-15) / abs(b)
    return BlaschkeMap(unimodular_factor=zeta, zeros=(b,), scale=s_star)


# ---------------------------------------------------------------------------
# origin-geodesic solver
# ---------------------------------------------------------------------------

#: a point with every coordinate, or a disc value lam0, below this modulus
#: is the origin
_ORIGIN_TOL = 1e-13

#: coordinate residual under which a closed-form origin disc is accepted
_ORIGIN_ACCEPT = 1e-8


def _at_origin(z: TetraPoint) -> bool:
    return max(abs(c) for c in z.as_tuple()) < _ORIGIN_TOL


@dataclass(frozen=True)
class OriginGeodesicSolution:
    """A solved origin geodesic hitting a target: f(lam0) = z with
    f = sigma o (family disc) when ``swapped``."""

    params: OriginGeodesicParams
    lam0: complex
    swapped: bool
    residual: float

    def disc(self) -> Callable[[complex], TetraPoint]:
        base = origin_geodesic_disc(self.params)
        if self.swapped:
            return lambda lam: sigma(base(lam))
        return base

    def left_inverse(self) -> PsiOmegaMap:
        return certified_left_inverse(self.params, swapped=self.swapped)

    @property
    def value(self) -> HyperbolicDistance:
        return HyperbolicDistance.from_m(abs(self.lam0))


def _solution(p: OriginGeodesicParams, lam: complex, zz: TetraPoint,
              swapped: bool) -> Optional[OriginGeodesicSolution]:
    """The origin geodesic p through zz (z, or sigma z when ``swapped``) at
    lam; None when a coordinate misses by ``_ORIGIN_ACCEPT`` or more."""
    residual = max(abs(a - b) for a, b in zip(eval_origin_geodesic(p, lam), zz))
    return OriginGeodesicSolution(p, lam, swapped, residual) if residual < _ORIGIN_ACCEPT else None


def _origin_disc(z: TetraPoint, swapped: bool) -> Optional[OriginGeodesicSolution]:
    """The origin geodesic through z, or sigma z when ``swapped``, at the
    eta where |Psi_eta| is largest: lam0 = mu = Psi_eta, v = phi(mu) = eta
    z3/mu, and the real C that best fits the first two coordinates.  None
    when |mu| is below ``_ORIGIN_TOL``, when no self-map phi interpolates
    (C, mu, v) in the closed disc, or when the disc misses the point."""
    zz = sigma(z) if swapped else z
    eta = cmath.exp(1j * _maximizing_angle(zz))
    mu = psi_eta(eta, zz)
    if abs(mu) < _ORIGIN_TOL:
        return None
    v = eta * zz.z3 / mu
    # one real scale C must satisfy two complex linear conditions;
    # solve in least squares and let the final residual arbitrate
    a1 = eta.conjugate() - zz.z1
    b1 = zz.z1 - eta.conjugate() * v
    a2 = mu * v - zz.z2
    b2 = zz.z2 - mu
    C = ((a1.conjugate() * b1 + a2.conjugate() * b2).real) / (abs(a1) ** 2 + abs(a2) ** 2)
    C = min(max(C, 0.0), 1.0)
    try:
        params = OriginGeodesicParams(C, eta.conjugate(), 1.0, blaschke_interp_origin(C, mu, v))
    except DomainError:
        return None
    return _solution(params, mu, zz, swapped)


def _maximizing_angle(zz: TetraPoint) -> float:
    """The angle of an eta on the unit circle at which |Psi_eta(zz)| is
    largest, psi_sup(zz), in closed form.

    With b0 = z1 z2 - z3 and c = z2 - conj(z1) z3, Psi_eta(z) = z2 +
    b0/(conj(eta) - z1) on the circle, and 1/(zeta - z1) runs over the
    circle of centre conj(z1)/(1 - |z1|^2) and radius 1/(1 - |z1|^2).  The
    maximum is where b0 times the offset from that centre points along c:

        conj(eta) = z1 + (1 - |z1|^2)/(conj(z1) + u),  u = (c/|c|)(|b0|/b0).

    There C(eta) = b0 eta/((z2 - z3 eta)(1 - z1 eta)) is real.  When b0 or
    c vanishes, |Psi_eta(z)| and the reality of C do not depend on eta, and
    eta = -conj(z1)/|z1| (1 when z1 = 0) gives the least C.
    """
    z1, z2, z3 = zz.as_tuple()
    b0 = z1 * z2 - z3
    c = z2 - z1.conjugate() * z3
    if b0 == 0.0 or c == 0.0:
        return cmath.phase(-z1.conjugate()) if z1 != 0.0 else 0.0
    u = (c / abs(c)) * (abs(b0) / b0)
    return -cmath.phase(z1 + (1.0 - abs(z1) ** 2) / (z1.conjugate() + u))


def origin_lempert(z) -> Optional[OriginGeodesicSolution]:
    """Solve for a geodesic through 0 and z; its |lam0| is the Lempert (and
    Caratheodory) m-scale value of the pair (0, z), max(psi_sup(z),
    psi_sup(sigma z)).  The disc is built on each side, z or sigma z, whose
    psi_sup is the larger (both when they tie): by the Schwarz lemma only
    those sides carry a geodesic through 0 and z.  Ties break toward the
    lowest phi degree, then the smallest C, then the unswapped side.  None
    if the closed-form disc misses z, which does not prove non-existence."""
    z = TetraPoint.of(z)
    if _at_origin(z):
        params = OriginGeodesicParams(0.0, 1.0, 1.0, BlaschkeMap.constant(0.0))
        return OriginGeodesicSolution(params, 0.0, False, 0.0)
    if not is_interior(z):
        raise DomainError("target must be interior to the tetrablock")
    sups = (psi_sup(z), psi_sup(sigma(z)))
    solutions = [_origin_disc(z, swapped) for swapped in (False, True)
                 if sups[swapped] == max(sups)]
    return min(filter(None, solutions), default=None,
               key=lambda s: (s.params.phi.degree, s.params.C, s.swapped))


def solve_origin_geodesic_through(z, lam0: complex) -> Optional[OriginGeodesicSolution]:
    """Origin-geodesic parameters with f(lam0) = z: the disc of
    ``origin_lempert(z)`` turned by a rotation of the disc onto lam0.

    Solvable only when |lam0| equals the Lempert value of (0, z); None
    otherwise, and when the turned disc misses z.
    """
    z = TetraPoint.of(z)
    lam0 = require_disc_point(lam0, name="lam0")
    sol = origin_lempert(z)
    at_zero = abs(lam0) < _ORIGIN_TOL
    if sol is None or at_zero != (sol.lam0 == 0.0) or abs(abs(sol.lam0) - abs(lam0)) > 1e-7:
        return None
    if at_zero:
        return sol
    rho = sol.lam0 / lam0
    rho /= abs(rho)
    params = replace(sol.params, omega2=sol.params.omega2 * rho,
                     phi=sol.params.phi.precompose_rotation(rho))
    return _solution(params, lam0, sigma(z) if sol.swapped else z, sol.swapped)


# ---------------------------------------------------------------------------
# upper-bound search for the Lempert function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscSearchResult:
    """Outcome of an interpolating-disc search.

    ``residual`` is |f(lam1) - w|^2 + |f(lam2) - z|^2 of the accepted disc;
    ``bound`` is a certified upper bound for the Lempert function once
    ``found`` is True.  ``reason`` says deterministically how the result was
    reached, or why nothing was found; ``starts`` counts the closed-form
    candidates (C, omega1) of the general-disc route and ``evaluations`` the
    discs it built from them, 0 when it did not run.
    """

    found: bool
    bound: Optional[HyperbolicDistance]
    residual: float
    family: str
    lam1: Optional[complex] = None
    lam2: Optional[complex] = None
    reason: str = ""
    starts: int = 0
    evaluations: int = 0


#: squared endpoint residual under which a closed route's disc is accepted
_SEARCH_ACCEPT = 1e-9


def _endpoint_residual(f: Callable, lam_w: complex, w: TetraPoint,
                       lam_z: complex, z: TetraPoint) -> float:
    """|f(lam_w) - w|^2 + |f(lam_z) - z|^2."""
    return (sum(abs(a - b) ** 2 for a, b in zip(TetraPoint.of(f(lam_w)), w))
            + sum(abs(a - b) ** 2 for a, b in zip(TetraPoint.of(f(lam_z)), z)))


def _accepted_disc(family: str, f: Callable, lam_w: complex, w: TetraPoint,
                   lam_z: complex, z: TetraPoint) -> Optional[DiscSearchResult]:
    """The disc f as a result of ``family`` with bound m(lam_w, lam_z), when
    its endpoint residual is below the acceptance of the closed routes."""
    residual = _endpoint_residual(f, lam_w, w, lam_z, z)
    if residual >= _SEARCH_ACCEPT:
        return None
    return DiscSearchResult(True, HyperbolicDistance.from_m(mobius_m(lam_w, lam_z)),
                            residual, family, lam_w, lam_z, reason=f"{family}: closed form")


def axis_pair(w, z) -> Optional[Tuple[complex, complex, bool, bool]]:
    """Recognize a pair of the form (0, 0, c), (0, y, c) with |y| + |c| < 1,
    up to the coordinate swap and argument order.

    Returns ``(c, y, swapped, flipped)``, or None for any other pair.  The
    Lempert value of such a pair is ``lempert_special(y, c)``.
    """
    w = TetraPoint.of(w)
    z = TetraPoint.of(z)
    for swapped in (False, True):
        a0 = sigma(w) if swapped else w
        b0 = sigma(z) if swapped else z
        for a, b, flipped in ((a0, b0, False), (b0, a0, True)):
            if (abs(a.z1) > 1e-13 or abs(a.z2) > 1e-13 or abs(b.z1) > 1e-13
                    or abs(b.z3 - a.z3) > 1e-12 or abs(a.z3) + abs(b.z2) >= 1.0):
                continue
            return a.z3, b.z2, swapped, flipped
    return None


def _axis_pair_candidate(w: TetraPoint, z: TetraPoint) -> Optional[DiscSearchResult]:
    """Exact disc for the pairs ``axis_pair`` recognizes."""
    pair = axis_pair(w, z)
    if pair is None:
        return None
    c, y, swapped, flipped = pair
    C = abs(c)
    omega1 = -c / C if C > 0 else 1.0
    lam2 = y / (1.0 - C)

    def f(lam: complex) -> TetraPoint:
        point = TetraPoint(0.0, lam * (1.0 - C), -omega1 * C)
        return sigma(point) if swapped else point

    lam_w, lam_z = (lam2, 0.0) if flipped else (0.0, lam2)
    return _accepted_disc("axis-pair", f, lam_w, w, lam_z, z)


def _on_product_slice(p: TetraPoint) -> bool:
    """z3 = z1 z2 to rounding: the product and z3 differ by at most four
    units in the last place of their sizes.  A point farther off has a
    Lempert distance that the product disc of its projection can undercut."""
    gap = abs(p.z1 * p.z2 - p.z3)
    return gap <= 4.0 * sys.float_info.epsilon * (abs(p.z1 * p.z2) + abs(p.z3))


def _product_pair_candidate(w: TetraPoint, z: TetraPoint) -> Optional[DiscSearchResult]:
    """Exact product disc for pairs in the slice {z1 z2 = z3}."""
    if not (_on_product_slice(w) and _on_product_slice(z)):
        return None
    d1 = mobius_m(w.z1, z.z1)
    d2 = mobius_m(w.z2, z.z2)
    swap = d2 > d1
    if swap:
        w2, z2 = sigma(w), sigma(z)
    else:
        w2, z2 = w, z
    u2 = (z2.z1 - w2.z1) / (1.0 - w2.z1.conjugate() * z2.z1)
    if abs(u2) < 1e-15:
        target = max(d1, d2)
        if target > 1e-13:
            return None
        return DiscSearchResult(True, HyperbolicDistance.zero(), 0.0, "product", 0.0, 0.0,
                                reason="product: closed form")
    c = ((z2.z2 - w2.z2) / (1.0 - w2.z2.conjugate() * z2.z2)) / u2

    def f(t: complex) -> TetraPoint:
        av = (t + w2.z1) / (1.0 + w2.z1.conjugate() * t)
        bv = (c * t + w2.z2) / (1.0 + w2.z2.conjugate() * c * t)
        point = TetraPoint(av, bv, av * bv)
        return sigma(point) if swap else point

    return _accepted_disc("product", f, 0.0, w, u2, z)


def _origin_pair_candidate(w: TetraPoint, z: TetraPoint) -> Optional[DiscSearchResult]:
    w_zero, z_zero = _at_origin(w), _at_origin(z)
    if not (w_zero or z_zero):
        return None
    target = z if w_zero else w
    sol = origin_lempert(target)
    if sol is None:
        return None
    lam_w, lam_z = (0.0, sol.lam0) if w_zero else (sol.lam0, 0.0)
    return _accepted_disc("origin-geodesic", sol.disc(), lam_w, w, lam_z, z)


#: squared endpoint residual under which a general disc is accepted.  Its
#: (C, omega1) is a closed-form member of an endpoint, so a disc of the
#: family through both endpoints reproduces them to rounding; a disc that
#: misses one by more is no interpolant, and its m(lam_w, lam_z) can lie
#: below the Lempert value
_GENERAL_ACCEPT = 1e-20


def _member_roots(z: TetraPoint) -> List[Tuple[float, complex]]:
    """The (C, omega1) with which a general disc can pass through z, at most
    two, in closed form and with no range test.

    A general disc takes the value z at lam when phi(lam) = z1 (1 + C)/omega1
    - C and omega2 psi(lam) = z3/(omega1 phi(lam)), and the second
    coordinate then leaves one quadratic in omega1, affine in C:

        Q = -z2 C omega1^2 + (z1 z2 (1 + C) - z3 (1 - C)) omega1 - C z1 z3
          = C Q1(omega1) + (z1 z2 - z3) omega1 = 0.

    For unimodular omega1 = e^{i theta}, C = -(z1 z2 - z3) omega1 / Q1 is
    real exactly where T(theta) = t0 + Im(gamma e^{i theta}) vanishes (the
    imaginary part of Q0 conj(Q1)), at no more than two angles.
    """
    z1, z2, z3 = z.as_tuple()
    b0 = z1 * z2 - z3
    b1 = z1 * z2 + z3
    t0 = (b0 * b1.conjugate()).imag
    gamma = b0.conjugate() * z2 - b0 * (z1 * z3).conjugate()
    roots: List[Tuple[float, complex]] = []
    if gamma != 0.0 and abs(t0) <= abs(gamma):
        tilt = math.asin(-t0 / abs(gamma))
        for theta in (tilt, math.pi - tilt):
            omega1 = cmath.exp(1j * (theta - cmath.phase(gamma)))
            q1 = -z2 * omega1 ** 2 + b1 * omega1 - z1 * z3
            if q1 != 0.0:
                roots.append(((-b0 * omega1 / q1).real, omega1))
    return roots


def _endpoint_values(ends: np.ndarray, C: float, omega1: complex):
    """phi and psi at which a general disc with (C, omega1) takes the first
    two coordinates of each row of ``ends``, with omega2 = 1 (omega2 psi is
    itself a self-map).  Taking psi from the second coordinate never
    divides by phi."""
    phi = ends[:, 0] * (1.0 + C) / omega1 - C
    psi = ends[:, 1] * (1.0 + C) / (1.0 + C * phi)
    return phi, psi


def _self_map_through(a: complex, t: float, b: complex) -> BlaschkeMap:
    """A self-map of degree <= 1 with g(0) = a and g(t) = b, given m(a, b)
    <= t: the interpolant with value -|a| at 0, rotated onto a."""
    rho = -a / abs(a) if a != 0.0 else 1.0
    g = blaschke_interp_origin(abs(a), t, b / rho)
    if g.is_constant:
        return BlaschkeMap.constant(a)
    return BlaschkeMap(rho * g.unimodular_factor, g.zeros, g.scale)


def _interpolating_general_disc(w: TetraPoint, z: TetraPoint, C: float,
                                omega1: complex) -> Optional[Tuple[float, float]]:
    """The best general disc with this C and omega1 for the pair, as the
    lam_z at which it meets z (it meets w at 0) and its squared endpoint
    residual; None when no disc is built, because C leaves [0, 1) or phi or psi
    leaves the disc at an endpoint.  (C, omega1) fix phi and psi at both
    endpoints, so by the two-point Schwarz-Pick lemma the least m(lam_w,
    lam_z) is t = max(m(phi_w, phi_z), m(psi_w, psi_z)), reached at lam_w =
    0, lam_z = t by maps of degree <= 1."""
    if not -TOL_CLOSURE <= C < 1.0:
        return None
    C = max(C, 0.0)
    phi, psi = _endpoint_values(np.array([w.as_tuple(), z.as_tuple()]), C, omega1)
    if max(np.max(np.abs(phi)), np.max(np.abs(psi))) >= 1.0:
        return None
    t = float(max(mobius_m(phi[0], phi[1]), mobius_m(psi[0], psi[1])))
    try:
        params = GeneralDiscParams(C, omega1, 1.0, _self_map_through(phi[0], t, phi[1]),
                                   _self_map_through(psi[0], t, psi[1]))
    except DomainError:
        return None
    return t, _endpoint_residual(general_disc(params), 0.0, w, t, z)


def _general_disc_bound(w: TetraPoint, z: TetraPoint, budget: int) -> DiscSearchResult:
    """The least bound over general discs through the pair, one disc per
    closed-form candidate (C, omega1): the members of each endpoint, and
    where p3 = 0 and 0 < |p1| < 1/2 the (C, omega1) at which phi vanishes at
    p, the only candidate when both endpoints have z2 = z3 = 0.  At most
    ``budget`` discs are built; a disc counts only when it reproduces both
    endpoints to rounding.  The result counts the candidates as ``starts``
    and the discs built as ``evaluations``, and its reason gives the least
    squared residual of a built disc."""
    candidates = [root for p in (w, z) for root in _member_roots(p)]
    candidates += [(abs(p.z1) / (1.0 - abs(p.z1)), p.z1 / abs(p.z1)) for p in (w, z)
                   if p.z3 == 0.0 and 0.0 < abs(p.z1) < 0.5]
    discs: List[Tuple[float, float]] = []
    for C, omega1 in candidates:
        if len(discs) >= budget:
            break
        disc = _interpolating_general_disc(w, z, C, omega1)
        if disc is not None:
            discs.append(disc)
    best_residual = min((residual for _, residual in discs), default=math.inf)
    reason = (f"general-disc: {len(candidates)} starts, {len(discs)} evaluations, "
              f"best residual {best_residual:#.2g}")
    counts = dict(reason=reason, starts=len(candidates), evaluations=len(discs))
    exact = [disc for disc in discs if disc[1] <= _GENERAL_ACCEPT]
    if not exact:
        return DiscSearchResult(False, None, math.inf, "none", **counts)
    t, residual = min(exact)
    return DiscSearchResult(True, HyperbolicDistance.from_m(t), residual, "general-disc",
                            0.0, t, **counts)


def disc_search_upper_bound(w, z, family: str = "auto",
                            budget: int = 100000) -> DiscSearchResult:
    """Least Mobius distance of disc preimages found over interpolating
    families; a certified upper bound for the Lempert function.

    ``family`` is one of ``auto`` (closed-form routes, then the general
    family if none apply), ``axis-pair``, ``product``, ``origin-geodesic``
    or ``general-disc``.  The closed routes accept their disc at quadratic
    endpoint residual below 1e-9, the general-disc route only at 1e-20, so
    through both endpoints to rounding; when nothing qualifies the result
    carries ``found = False``.  A pair with an endpoint at the origin takes
    the origin geodesic whenever it is found, since its value is exact (the
    Schwarz lemma).  The general-disc route builds one disc per closed-form
    (C, omega1) of the endpoints, at most ``budget`` discs.
    """
    known = {"auto", "axis-pair", "product", "origin-geodesic", "general-disc"}
    if family not in known:
        raise DomainError(f"unknown search family {family!r}; known: {sorted(known)}")
    w = TetraPoint.of(w)
    z = TetraPoint.of(z)
    for name, point in (("w", w), ("z", z)):
        if not is_interior(point):
            raise DomainError(f"{name} must be interior to the tetrablock")
    if max(abs(a - b) for a, b in zip(w, z)) < 1e-14:
        return DiscSearchResult(True, HyperbolicDistance.zero(), 0.0, "trivial", 0.0, 0.0,
                                reason="trivial: w = z")

    if family in ("auto", "origin-geodesic"):
        cand = _origin_pair_candidate(w, z)
        if cand:
            # the Lempert value itself, by the Schwarz lemma
            return cand
    candidates: List[DiscSearchResult] = []
    if family in ("auto", "axis-pair"):
        cand = _axis_pair_candidate(w, z)
        if cand:
            candidates.append(cand)
    if family in ("auto", "product"):
        cand = _product_pair_candidate(w, z)
        if cand:
            candidates.append(cand)
    failure = DiscSearchResult(False, None, math.inf, "none",
                               reason=f"{family}: not applicable")
    if family == "general-disc" or (family == "auto" and not candidates):
        failure = _general_disc_bound(w, z, budget)
        if failure.found:
            candidates.append(failure)
    if not candidates:
        return failure
    return min(candidates, key=lambda c: c.bound.m_scale)


#: how far c_lower may exceed k_upper with the sandwich closed; the
#: general-disc route undercuts c_lower by up to 2.9e-12 (ROADMAP item 1)
SANDWICH_TOL = 1e-9
#: how far c_lower must exceed p_e for the pair to separate the two
SEPARATION_TOL = 1e-12


@dataclass(frozen=True)
class PairReport:
    """A pair's sandwich p_e <= c_lower <= l_E <= k_upper: ``lower`` holds each
    lower family's m-value, ``search`` the best search (None when none ran),
    whose ``bound`` is k_upper; ``gap`` (k_upper - c_lower, m-scale) and
    ``sandwich_ok`` are None without it; ``closed_form`` is an axis pair's l_E."""

    p_e: HyperbolicDistance
    c_lower: HyperbolicDistance
    lower: Dict[ExtremalFamily, float]
    search: Optional[DiscSearchResult]
    closed_form: Optional[HyperbolicDistance]
    gap: Optional[float]
    separated: bool
    sandwich_ok: Optional[bool]


def pair_report(w, z, lower: Iterable[ExtremalFamily] = TETRABLOCK_FAMILIES,
                upper: Iterable[str] = ("auto",), budget: int = 100000) -> PairReport:
    """p_e and c_lower over ``lower`` from one Psi-family solve, and the best
    ``disc_search_upper_bound`` over the ``upper`` families: a found bound
    beats none, a smaller one a larger, and the first of equals wins.
    ``upper=()`` runs no search."""
    lower = tuple(lower)
    if not lower:
        raise DomainError("lower families must be nonempty")
    w, z = TetraPoint.of(w), TetraPoint.of(z)
    values = family_bounds(w, z, lower + PSI_FAMILIES)
    p_val = HyperbolicDistance.from_m(max(values[len(lower):]))
    c_val = HyperbolicDistance.from_m(max(0.0, *values[:len(lower)]))
    searches = [disc_search_upper_bound(w, z, family=f, budget=budget) for f in upper]
    search = min(searches, key=lambda s: (not s.found, s.bound.m_scale if s.found else 0.0),
                 default=None)
    k_upper = search.bound if search is not None else None  # None when not found
    pair = axis_pair(w, z)
    closed = lempert_special(pair[1], pair[0]) if pair is not None else None
    gap = sandwich_ok = None
    if k_upper is not None:
        gap = k_upper.m_scale - c_val.m_scale
        sandwich_ok = c_val.m_scale <= k_upper.m_scale + SANDWICH_TOL
    return PairReport(p_val, c_val, dict(zip(lower, values)), search, closed, gap,
                      c_val.m_scale > p_val.m_scale + SEPARATION_TOL, sandwich_ok)
