"""Unit-disc geometry: Mobius pseudodistance, disc automorphisms and finite
Blaschke products.

Points of the disc are plain ``complex`` numbers.  Closed-disc arguments are
accepted up to ``TOL_CLOSURE``; "open" arguments are rejected at modulus >= 1.
Distances are carried on two scales, the Mobius scale m in [0, 1) and the
Poincare scale p = artanh(m) (no extra factor 1/2), and the two are kept
consistent to machine precision.  Comparisons elsewhere in the package are
done on the m-scale, which is bounded and better conditioned near the
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DomainError

#: slack admitted when a value must lie in the *closed* unit disc
TOL_CLOSURE = 1e-12

#: tolerance used when validating unimodular parameters
UNIMODULAR_TOL = 1e-9


def require_disc_point(value: complex, *, name: str = "value") -> complex:
    """Validate a point of the open unit disc and return it as ``complex``."""
    value = complex(value)
    if abs(value) >= 1.0:
        raise DomainError(f"{name} must have modulus < 1, got |{name}| = {abs(value)}")
    return value


def require_closed_disc_point(value: complex, *, name: str = "value") -> complex:
    """Validate a point of the closed unit disc (up to ``TOL_CLOSURE``)."""
    value = complex(value)
    if abs(value) > 1.0 + TOL_CLOSURE:
        raise DomainError(f"{name} must have modulus <= 1, got |{name}| = {abs(value)}")
    return value


def require_unimodular(value: complex, *, name: str = "omega") -> complex:
    """Validate |value| = 1 up to ``UNIMODULAR_TOL`` and return it normalized."""
    value = complex(value)
    r = abs(value)
    if abs(r - 1.0) > UNIMODULAR_TOL:
        raise DomainError(f"{name} must be unimodular, got |{name}| = {r}")
    return value / r


def mobius_m(lam1: complex, lam2: complex) -> float:
    """Raw Mobius pseudodistance |(l1 - l2) / (1 - conj(l1) l2)|, unvalidated;
    broadcasts over arrays."""
    return abs((lam1 - lam2) / (1.0 - lam1.conjugate() * lam2))


@dataclass(frozen=True)
class HyperbolicDistance:
    """A disc distance on both scales: m in [0, 1) and p = artanh(m)."""

    m_scale: float
    p_scale: float

    @staticmethod
    def from_m(m: float) -> "HyperbolicDistance":
        m = float(m)
        if m < 0.0 or m >= 1.0:
            raise DomainError(f"m-scale distance must lie in [0, 1), got {m}")
        return HyperbolicDistance(m, math.atanh(m))

    @staticmethod
    def zero() -> "HyperbolicDistance":
        return HyperbolicDistance(0.0, 0.0)


def mobius_distance(lam1: complex, lam2: complex) -> HyperbolicDistance:
    """Distance between two points of the open disc, on both scales.

    Symmetric in its arguments; rejects arguments of modulus >= 1.
    """
    lam1 = require_disc_point(lam1, name="lam1")
    lam2 = require_disc_point(lam2, name="lam2")
    return HyperbolicDistance.from_m(mobius_m(lam1, lam2))


@dataclass(frozen=True)
class BlaschkeMap:
    """A finite Blaschke product scaled into the disc, or a constant map.

    Non-constant form: ``lam -> scale * u * prod_k (lam - a_k)/(1 - conj(a_k) lam)``
    with ``|u| = 1``, ``|a_k| < 1`` and ``scale in [0, 1]``.  With one zero,
    scale 1 and no offset this is a disc automorphism.  The constant-map case
    is encoded by ``constant_offset`` (modulus <= 1) with an empty zero list.

    Evaluation at any point of the open disc lands in the closed disc; it
    lands in the open disc whenever the representation has any slack
    (scale < 1, or a non-constant product, or |constant_offset| < 1).
    """

    unimodular_factor: complex = 1.0 + 0.0j
    zeros: tuple = ()
    scale: float = 1.0
    constant_offset: Optional[complex] = None

    def __post_init__(self):
        object.__setattr__(self, "unimodular_factor",
                           require_unimodular(self.unimodular_factor, name="unimodular_factor"))
        object.__setattr__(self, "zeros", tuple(complex(a) for a in self.zeros))
        for a in self.zeros:
            if abs(a) >= 1.0:
                raise DomainError(f"Blaschke zero must have modulus < 1, got {abs(a)}")
        s = float(self.scale)
        if not -TOL_CLOSURE <= s <= 1.0 + TOL_CLOSURE:
            raise DomainError(f"scale must lie in [0, 1], got {s}")
        object.__setattr__(self, "scale", min(max(s, 0.0), 1.0))
        if self.constant_offset is not None:
            c = require_closed_disc_point(complex(self.constant_offset), name="constant_offset")
            if self.zeros:
                raise DomainError("a constant BlaschkeMap cannot carry zeros")
            object.__setattr__(self, "constant_offset", c)

    # -- structure ---------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return self.constant_offset is not None

    @property
    def degree(self) -> int:
        return 0 if self.is_constant else len(self.zeros)

    @property
    def is_automorphism(self) -> bool:
        return (self.constant_offset is None and len(self.zeros) == 1
                and self.scale >= 1.0 - 1e-12)

    @staticmethod
    def identity() -> "BlaschkeMap":
        return BlaschkeMap(zeros=(0.0,))

    @staticmethod
    def constant(c: complex) -> "BlaschkeMap":
        return BlaschkeMap(constant_offset=complex(c))

    # -- evaluation --------------------------------------------------------

    def __call__(self, lam):
        """Evaluate; accepts a complex scalar or a numpy array of them."""
        if self.constant_offset is not None:
            return self.constant_offset + 0.0 * lam
        out = self.scale * self.unimodular_factor + 0.0 * lam
        for a in self.zeros:
            out = out * (lam - a) / (1.0 - a.conjugate() * lam)
        return out

    def derivative(self, lam):
        """Complex derivative, by the product rule over Mobius factors."""
        if self.constant_offset is not None:
            return 0.0 * lam
        factors = [(lam - a) / (1.0 - a.conjugate() * lam) for a in self.zeros]
        dfactors = [(1.0 - abs(a) ** 2) / (1.0 - a.conjugate() * lam) ** 2 for a in self.zeros]
        total = 0.0 * lam
        for k in range(len(self.zeros)):
            term = dfactors[k] + 0.0 * lam
            for j, f in enumerate(factors):
                if j != k:
                    term = term * f
            total = total + term
        return self.scale * self.unimodular_factor * total

    def precompose_rotation(self, rho: complex) -> "BlaschkeMap":
        """The map ``lam -> self(rho * lam)`` for unimodular ``rho``."""
        rho = require_unimodular(rho, name="rho")
        if self.constant_offset is not None:
            return self
        new_zeros = tuple(a * rho.conjugate() for a in self.zeros)
        new_factor = self.unimodular_factor * rho ** len(self.zeros)
        return BlaschkeMap(new_factor, new_zeros, self.scale)


def disc_automorphism(a: complex, omega: complex = 1.0) -> BlaschkeMap:
    """The automorphism ``lam -> omega (lam - a) / (1 - conj(a) lam)``."""
    a = require_disc_point(a, name="a")
    omega = require_unimodular(omega)
    return BlaschkeMap(unimodular_factor=omega, zeros=(a,), scale=1.0)


def blaschke_eval(b: BlaschkeMap, lam: complex) -> complex:
    """Evaluate a BlaschkeMap at a point of the open disc."""
    lam = require_disc_point(lam, name="lam")
    return b(lam)


def schwarz_pick_check(g: Callable[[complex], complex], lam1: complex, lam2: complex,
                       *, tol: float = 1e-12) -> bool:
    """True iff m(g(l1), g(l2)) <= m(l1, l2) + tol for a sampled self-map g."""
    lam1 = require_disc_point(lam1, name="lam1")
    lam2 = require_disc_point(lam2, name="lam2")
    v1 = require_closed_disc_point(complex(g(lam1)), name="g(lam1)")
    v2 = require_closed_disc_point(complex(g(lam2)), name="g(lam2)")
    return mobius_m(v1, v2) <= mobius_m(lam1, lam2) + tol
