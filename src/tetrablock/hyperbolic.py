"""Unit-disc geometry: the Mobius pseudodistance and finite Blaschke
products.

Points of the disc are plain ``complex`` numbers.  Closed-disc arguments are
accepted up to ``TOL_CLOSURE``; "open" arguments are rejected at modulus >= 1.
Distances are carried on two scales, the Mobius scale m in [0, 1) and the
Poincare scale p = artanh(m) (no extra factor 1/2), and the two are kept
consistent to machine precision.  Comparisons elsewhere in the package are
done on the m-scale, which is bounded and better conditioned near the
boundary.

A ``BlaschkeMap`` and the parameter records built on it may also hold a
stack of n members: every field is then an array of shape (n, 1), and
evaluation at an array of points of shape (m,) or (n, m) gives an (n, m)
array.  The validators below accept such arrays and check them entry by
entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import DomainError

#: slack admitted when a value must lie in the *closed* unit disc
TOL_CLOSURE = 1e-12

#: tolerance used when validating unimodular parameters
UNIMODULAR_TOL = 1e-9


def least(values):
    """The smallest entry of an array, or a scalar itself: guards on array
    fields test every entry."""
    return values.min(initial=math.inf) if isinstance(values, np.ndarray) else values


_BOOL = np.dtype(bool)


def largest(values):
    """The largest entry of an array, or a scalar itself.  A boolean array
    gives whether any entry is True: the -inf start of the maximum would be
    cast to True."""
    if not isinstance(values, np.ndarray):
        return values
    return values.any() if values.dtype is _BOOL else values.max(initial=-math.inf)


# The validators take a scalar or an array and apply one rule to every
# entry.  A scalar is checked in plain Python, without calls into numpy,
# and a plain Python number is not even tested for being an array, so that
# scalar records cost what they did before stacks existed.
_NUMBERS = (complex, float, int)


def _is_stack(value) -> bool:
    """Whether a validator gets an array of one or more dimensions, the one
    case it checks with numpy; anything else is a scalar."""
    return type(value) not in _NUMBERS and isinstance(value, np.ndarray) and value.ndim > 0


def modulus(x):
    """|x| of a scalar or an array; inf where Python's ``abs`` of a finite
    complex beyond the float range raises OverflowError."""
    try:
        return abs(x)
    except OverflowError:
        return math.inf


def _with_modulus(value):
    """``value`` as ``complex`` (or a complex array) and its modulus (the
    largest one of an array)."""
    if _is_stack(value):
        value = value.astype(complex, copy=False)
        return value, largest(np.abs(value))
    value = complex(value)
    return value, modulus(value)


def require_interval(value, lo: float, hi: float, *, name: str = "value"):
    """Validate a real value, or an array of them, in [lo, hi] up to
    ``TOL_CLOSURE`` and return it clipped to [lo, hi]: a Python ``float``,
    or a float array.  NaN is rejected."""
    if _is_stack(value):
        value = value.astype(float, copy=False)
        if not (lo - TOL_CLOSURE <= least(value) and largest(value) <= hi + TOL_CLOSURE):
            raise DomainError(f"{name} must lie in [{lo:g}, {hi:g}], got {value}")
        return np.clip(value, lo, hi)
    value = float(value)
    if lo <= value <= hi:
        return value
    if not lo - TOL_CLOSURE <= value <= hi + TOL_CLOSURE:
        raise DomainError(f"{name} must lie in [{lo:g}, {hi:g}], got {value}")
    return min(max(value, lo), hi)


def require_disc_point(value, *, name: str = "value"):
    """Validate a point of the open unit disc, or an array of them, and
    return it as ``complex`` (or a complex array).  NaN is rejected."""
    value, r = _with_modulus(value)
    if not r < 1.0:
        raise DomainError(f"{name} must have modulus < 1, got |{name}| = {r}")
    return value


def require_closed_disc_point(value, *, name: str = "value"):
    """Validate a point of the closed unit disc (up to ``TOL_CLOSURE``), or
    an array of them.  NaN is rejected."""
    value, r = _with_modulus(value)
    if not r <= 1.0 + TOL_CLOSURE:
        raise DomainError(f"{name} must have modulus <= 1, got |{name}| = {r}")
    return value


def require_unimodular(value, *, name: str = "omega"):
    """Validate |value| = 1 up to ``UNIMODULAR_TOL``, entry by entry for an
    array, and return it normalized.  NaN is rejected."""
    if _is_stack(value):
        value = value.astype(complex, copy=False)
        r = np.abs(value)
        off = largest(np.abs(r - 1.0))
    else:
        value = complex(value)
        r = modulus(value)
        off = abs(r - 1.0)
    if not off <= UNIMODULAR_TOL:
        raise DomainError(f"{name} must be unimodular, got |{name}| off 1 by {off}")
    return value / r


def mobius_m(lam1: complex, lam2: complex) -> float:
    """Raw Mobius pseudodistance |(l1 - l2) / (1 - conj(l1) l2)|, unvalidated;
    broadcasts over arrays."""
    return abs((lam1 - lam2) / (1.0 - lam1.conjugate() * lam2))


@dataclass(frozen=True)
class HyperbolicDistance:
    """A disc distance on both scales: m in [0, 1) and p = artanh(m).  The
    one exception is the symmetric-lift bound of two far points next to the
    boundary, whose m rounds to 1 while p stays finite."""

    m_scale: float
    p_scale: float

    @staticmethod
    def from_m(m: float) -> "HyperbolicDistance":
        m = float(m)
        if not 0.0 <= m < 1.0:
            raise DomainError(f"m-scale distance must lie in [0, 1), got {m}")
        return HyperbolicDistance(m, math.atanh(m))

    @staticmethod
    def zero() -> "HyperbolicDistance":
        return HyperbolicDistance(0.0, 0.0)


def _spread(value, lam):
    """A map's value broadcast against the points it was evaluated at: a
    Python ``complex`` when both are scalars, else an array of their common
    shape (a constant map, or a stack, need not have it yet)."""
    if isinstance(value, np.ndarray) or isinstance(lam, np.ndarray):
        shape = np.broadcast_shapes(np.shape(value), np.shape(lam))
        if shape:
            return value if np.shape(value) == shape else np.full(shape, value, dtype=complex)
    return complex(value)


@dataclass(frozen=True)
class BlaschkeMap:
    """A finite Blaschke product scaled into the disc; with no zeros, a
    constant map.

    ``lam -> scale * u * prod_k (lam - a_k)/(1 - conj(a_k) lam)`` with
    ``|u| = 1``, ``|a_k| < 1`` and ``scale in [0, 1]``.  With one zero and
    scale 1 this is the disc automorphism ``BlaschkeMap(u, (a,), 1.0)``.
    A map with no zeros is the constant scale * u, which may lie anywhere
    in the closed disc; it is stored as its factor ``unimodular_factor``,
    with scale 1, so ``BlaschkeMap(c)`` and ``BlaschkeMap.constant(c)`` are
    one map, which evaluates to c exactly.

    A stack of maps of one degree has each field (the factor, every zero
    and the scale) an array of shape (n, 1), validated entry by entry.

    Evaluation at any point of the open disc lands in the closed disc; it
    lands in the open disc whenever the map has any slack (scale < 1, a
    zero, or a constant of modulus < 1).
    """

    unimodular_factor: complex = 1.0 + 0.0j
    zeros: tuple = ()
    scale: float = 1.0

    def __post_init__(self):
        scale = require_interval(self.scale, 0.0, 1.0, name="scale")
        if self.zeros:
            factor = require_unimodular(self.unimodular_factor, name="unimodular_factor")
            object.__setattr__(self, "zeros", tuple([require_disc_point(a, name="Blaschke zero")
                                                     for a in self.zeros]))
        else:
            factor = require_closed_disc_point(scale * self.unimodular_factor, name="constant")
            scale = 1.0
        object.__setattr__(self, "unimodular_factor", factor)
        object.__setattr__(self, "scale", scale)

    # -- structure ---------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return not self.zeros

    @property
    def degree(self) -> int:
        return len(self.zeros)

    @staticmethod
    def identity() -> "BlaschkeMap":
        return BlaschkeMap(zeros=(0.0,))

    @staticmethod
    def constant(c) -> "BlaschkeMap":
        return BlaschkeMap(c)

    def split(self) -> List["BlaschkeMap"]:
        """The maps of a stack one by one, as scalar maps in stack order; a
        scalar map gives a list of one."""
        u, s, *zeros = (x.ravel() for x in np.broadcast_arrays(
            self.unimodular_factor, self.scale, *self.zeros))
        return [BlaschkeMap(u[k], tuple(a[k] for a in zeros), s[k]) for k in range(u.size)]

    # -- evaluation --------------------------------------------------------

    def __call__(self, lam):
        """Evaluate; accepts a complex scalar or a numpy array of them, and
        gives a Python ``complex`` for a scalar map at a scalar point.  The
        numerators and the denominators of the factors are multiplied
        separately, so a map costs one division per point."""
        if not self.zeros:
            out = self.unimodular_factor
        else:
            # numpy evaluates x * t as t *= x when t is a temporary of 256 KiB
            # or more, and its complex product is not bitwise commutative (one
            # cross term of the imaginary part is fused): with the temporary
            # on the left the factor order, and so every bit, is the same at
            # every array size
            numerator, denominator = self.scale * self.unimodular_factor, 1.0
            for a in self.zeros:
                numerator = (lam - a) * numerator
                denominator = (1.0 - a.conjugate() * lam) * denominator
            out = numerator / denominator
        if type(out) is complex and type(lam) is not np.ndarray:
            return out  # a scalar map at a scalar point, without a numpy call
        return _spread(out, lam)

    def derivative(self, lam):
        """Complex derivative, by the product rule over Mobius factors."""
        factors = [(lam - a) / (1.0 - a.conjugate() * lam) for a in self.zeros]
        total = 0.0
        for k, a in enumerate(self.zeros):
            term = (1.0 - abs(a) ** 2) / (1.0 - a.conjugate() * lam) ** 2
            for j, f in enumerate(factors):
                if j != k:
                    term = term * f
            total = total + term
        return _spread(self.scale * self.unimodular_factor * total, lam)

    def precompose_rotation(self, rho: complex) -> "BlaschkeMap":
        """The map ``lam -> self(rho * lam)`` for unimodular ``rho``."""
        rho = require_unimodular(rho, name="rho")
        if not self.zeros:
            return self
        new_zeros = tuple(a * rho.conjugate() for a in self.zeros)
        new_factor = self.unimodular_factor * rho ** len(self.zeros)
        return BlaschkeMap(new_factor, new_zeros, self.scale)
