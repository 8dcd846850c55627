"""Oracles for the tests: finite differences for the closed-form gradients
of the family maps, the square-root family that ``family_bounds``
evaluates inline, and the one-array disc sampler that the chunked
``random_disc_points`` reproduces."""

import cmath
import math
from typing import Callable, Sequence, Tuple

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
