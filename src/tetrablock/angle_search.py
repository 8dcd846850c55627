"""Zoom refinement of a bracketed maximum of a smooth function of an angle,
as the origin-geodesic solver uses for its tangential near-zeros.

Each zoom round evaluates a local grid of ``ZOOM_POINTS`` angles across the
bracket in one call, recentres on its argmax and shrinks the bracket to one
local grid step, until the half-width is below ``REFINE_TOL``.  Angles carry
a trailing axis: an objective maps angles of shape ``(..., k)`` to values of
the same shape, so one call refines one bracket or a block of them.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

#: angles per zoom round, spanning the bracket end to end
ZOOM_POINTS = 17
#: refinement stops once the bracket half-width is below this angle (rad)
REFINE_TOL = 1e-11

_OFFSETS = np.linspace(-1.0, 1.0, ZOOM_POINTS)


def refine_max(values_fn: Callable[[np.ndarray], np.ndarray], theta,
               half_width: float) -> Tuple[np.ndarray, np.ndarray]:
    """Zoom refinement of a maximum bracketed by ``theta +- half_width``.

    ``theta`` has shape ``(...)``; returns the refined angles and their
    values, both of that shape.  The centre of each round is one of its
    angles, so the value never decreases from round to round.
    """
    theta = np.asarray(theta, dtype=float)
    while True:
        vals = np.asarray(values_fn(theta[..., None] + half_width * _OFFSETS), dtype=float)
        theta = theta + half_width * _OFFSETS[vals.argmax(axis=-1)]
        half_width *= 2.0 / (ZOOM_POINTS - 1)
        if half_width < REFINE_TOL:
            return theta, vals.max(axis=-1)
