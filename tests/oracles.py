"""Oracles for the tests: finite differences for the closed-form gradients
of the family maps, the square-root family that ``family_bounds``
evaluates inline, the one-array disc sampler that the chunked
``random_disc_points`` reproduces, and the Caratheodory distance of the
symmetrized bidisc with a sampler of the pairs it governs on the diagonal
of the tetrablock, and the symmetric 2 x 2 lift of a point with the 50-digit
operator norm that decides membership through it."""

import cmath
import math
from typing import Callable, Sequence, Tuple

import mpmath
import numpy as np

from tetrablock.domains import TetraPoint, as_coordinate


def numeric_gradient(fn: Callable, coords: Sequence[complex]) -> Tuple[complex, ...]:
    """Complex partial derivatives by 4-point central differences.

    Two central stencils at h = 1e-5 and h/2 along the real axis of each
    coordinate, combined by Richardson extrapolation; valid because the
    target functions are holomorphic.  Array coordinates give arrays of
    partials, with ``fn`` called once per stencil point on all samples.
    """
    coords = tuple(as_coordinate(c) for c in coords)
    step = 1e-5
    out = []
    for j in range(len(coords)):
        def shifted(delta: float) -> complex:
            probe = list(coords)
            probe[j] = probe[j] + delta
            return as_coordinate(fn(tuple(probe)))

        d_h = (shifted(step) - shifted(-step)) / (2.0 * step)
        d_h2 = (shifted(step / 2.0) - shifted(-step / 2.0)) / step
        out.append((4.0 * d_h2 - d_h) / 3.0)
    return tuple(out)


def magic_f(z) -> complex:
    """z2 / sqrt(1 + z3 - z1 z2) with the principal root, at a scalar point:
    the square-root family whose bound ``family_bounds`` reports as
    ``magic_f``."""
    z = TetraPoint.of(z)
    return z.z2 / cmath.sqrt(1.0 + z.z3 - z.z1 * z.z2)


def one_shot_disc_points(rng: np.random.Generator, n, radius: float = 0.9) -> np.ndarray:
    """The disc sampler of version 1.5.0, verbatim: each batch of pairs is
    one array, kept points are concatenated, and the result is a scaled
    copy."""
    shape = (n,) if isinstance(n, (int, np.integer)) else tuple(n)
    if min(shape, default=0) < 0:
        raise ValueError(f"negative dimensions are not allowed, got {shape}")
    size = math.prod(shape)
    points = np.empty(0, dtype=complex)
    while points.size < size:
        # 4/3 candidates per missing point against an acceptance of pi/4,
        # so a top-up is rare
        pairs = rng.uniform(-1.0, 1.0, size=((4 * (size - points.size)) // 3 + 16, 2))
        candidates = pairs.view(complex).ravel()
        inside = candidates[np.abs(candidates) < 1.0]
        points = np.concatenate([points, inside]) if points.size else inside
    return radius * points[:size].reshape(shape)


def c_g2(a, b) -> float:
    """The Caratheodory (and Lempert) distance of G2 on the m-scale between
    a = (s, p) and b: the maximum over |omega| = 1 of m(Phi_omega(a),
    Phi_omega(b)), Phi_omega(s, p) = (2 omega p - s) / (2 - omega s)
    (Agler-Young 2004, Costara 2004).  A 65 536-angle scan, then a
    golden-section search on the two cells around the best angle."""
    def m_value(theta):
        omega = np.exp(1j * np.asarray(theta))
        x, y = ((2.0 * omega * p - s) / (2.0 - omega * s) for s, p in (a, b))
        return np.abs((x - y) / (1.0 - np.conj(x) * y))

    n = 65_536
    thetas = np.arange(n) * (2.0 * math.pi / n)
    values = m_value(thetas)
    best = int(np.argmax(values))
    lo, hi = thetas[best] - 2.0 * math.pi / n, thetas[best] + 2.0 * math.pi / n
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(60):
        x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
        if m_value(x1) < m_value(x2):
            lo = x1
        else:
            hi = x2
    return float(max(values[best], m_value(lo), m_value(hi)))


def diagonal_pairs(seed: int, n: int, radius: float = 0.95):
    """``n`` seeded pairs of points (s, p) = (l1 + l2, l1 l2) of G2, each
    eigenvalue drawn uniformly from the square [-1, 1]^2 and kept when its
    modulus is below ``radius``.  Their images (s/2, s/2, p) lie on the
    diagonal z1 = z2 of the tetrablock, a holomorphic retract."""
    rng = np.random.default_rng(seed)

    def eigenvalue() -> complex:
        while True:
            lam = complex(*rng.uniform(-1.0, 1.0, 2))
            if abs(lam) < radius:
                return lam

    def endpoint():
        l1, l2 = eigenvalue(), eigenvalue()
        return (l1 + l2, l1 * l2)

    return [(endpoint(), endpoint()) for _ in range(n)]


def diagonal_point(g2) -> TetraPoint:
    """iota(s, p) = (s/2, s/2, p), the embedding of G2 onto the diagonal."""
    s, p = g2
    return TetraPoint(s / 2.0, s / 2.0, p)


def symmetric_lift(z):
    """The symmetric matrix [[z1, s], [s, z2]] with s^2 = z1 z2 - z3 (the
    principal root), as 50-digit mpmath entries.  Its determinant is z3, so
    it lies over z (Abouhajar, White and Young, J. Geom. Anal. 2007): z is
    in the tetrablock exactly when its norm is below 1."""
    with mpmath.workdps(50):
        z1, z2, z3 = (mpmath.mpc(complex(c)) for c in TetraPoint.of(z).as_tuple())
        s = mpmath.sqrt(z1 * z2 - z3)
    return ((z1, s), (s, z2))


def ball_norm(a):
    """The operator norm of a 2 x 2 matrix, rows of numbers, in 50-digit
    mpmath: ||A||^2 = (F + sqrt(F^2 - 4 |det A|^2)) / 2, with F the squared
    Frobenius norm, the larger root of the characteristic polynomial of
    A* A.  The discriminant is clamped at 0 against rounding where the
    singular values meet.  The result is an mpmath number, so a comparison
    with 1 is not rounded to a double first."""
    with mpmath.workdps(50):
        (a11, a12), (a21, a22) = ((mpmath.mpc(x) for x in row) for row in a)
        frob = sum(abs(x) ** 2 for x in (a11, a12, a21, a22))
        det = abs(a11 * a22 - a12 * a21)
        return mpmath.sqrt((frob + mpmath.sqrt(max(frob * frob - 4 * det * det, 0))) / 2)
