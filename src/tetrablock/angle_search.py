"""Deterministic maximization of smooth objectives over the unit circle.

The pattern used everywhere in this package: a dense angular grid locates the
global maximum bracket, then zoom refinement polishes it.  Each zoom round
evaluates a local grid of ``ZOOM_POINTS`` angles across the bracket in one
call, recentres on its argmax and shrinks the bracket to one local grid
step, until the half-width is below ``REFINE_TOL``.  The objectives are
smooth with a handful of critical points, so the grid step bounds the
bracketing error.

Angles carry a trailing axis: an objective maps angles of shape ``(..., k)``
to values of the same shape, so one search runs on a single point or on a
block of points alike.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

#: size of the global angular grid
N_ANGLES = 1024
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


def max_on_circle(values_fn: Callable[[np.ndarray], np.ndarray]
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Maximize ``values_fn`` over angles in [0, 2pi).

    ``values_fn`` maps angles of shape ``(..., k)`` to real values of that
    shape; the grid stage calls it with shape ``(N_ANGLES,)``.  Returns
    ``(theta, value)`` of the best point found, of shape ``(...)``.
    """
    thetas = np.linspace(0.0, 2.0 * math.pi, N_ANGLES, endpoint=False)
    vals = np.asarray(values_fn(thetas), dtype=float)
    theta, val = refine_max(values_fn, thetas[vals.argmax(axis=-1)],
                            2.0 * math.pi / N_ANGLES)
    return theta % (2.0 * math.pi), val
