"""Oracles for the tests: finite differences for the closed-form gradients
of the family maps, and the square-root family that ``family_bounds``
evaluates inline."""

import cmath
from typing import Callable, Sequence, Tuple

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
