"""Numerical checker for the quadratic necessary condition on complex
geodesics in circular domains.

For holomorphic f into a domain and F back to the disc with F o f = id, and
a one-parameter rotation family with weights (a_1, ..., a_n), the function

    psi(lam) = sum_j dF/dz_j(f(lam)) * i * a_j * f_j(lam)

must have the constrained quadratic form

    psi(lam) = -conj(psi0) lam^2 + i C lam + psi0,   C real.

The checker samples psi on a fixed disc grid, fits that three-real-parameter
model by least squares, and passes when the worst deviation is below
tolerance.  Equivalently, dividing by i, the weighted sum itself equals
conj(a) lam^2 + C lam + a with a = -i psi0.

The fits take a stack of n sample rows at one grid of m points: the checks
on the grid run once, one ``lstsq`` call solves all n right-hand sides, and
the fitted fields are (n, 1) arrays.  One sample row is a stack of one,
and one geodesic is checked as a stack of one disc.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .domains import as_coordinate
from .errors import DomainError, FitError
from .geodesics import left_inverse_residual, sample_grid

#: fit grid: 4 radii x 16 angles, 64 samples
FIT_RADII: Tuple[float, ...] = (0.15, 0.35, 0.55, 0.75)
FIT_N_ANGLES = 16

#: verdict tolerance on the worst deviation from the fitted quadratic
ANALYTIC_TOL = 1e-7

#: hypothesis gate: F o f must be the identity this well before checking
HYPOTHESIS_TOL = 1e-8


#: rotation weights (a_1, ..., a_n) of the circular symmetries: the
#: tetrablock's two, and the symmetrized bidisc's
TETRABLOCK_ACTIONS = ((1.0, 0.0, 1.0), (0.0, 1.0, 1.0))
G2_ACTION = (1.0, 2.0)


def fit_grid() -> np.ndarray:
    """The fit sample points, radius by radius, as one complex array."""
    return sample_grid(FIT_RADII, FIT_N_ANGLES)


def psi_of_lambda(F: Callable, f: Callable, actions: Sequence[Tuple[float, ...]],
                  lam: complex) -> List[complex]:
    """sum_j dF/dz_j(f(lam)) * i * a_j * f_j(lam), the gradient of F applied
    to the rotation field of each action's weights (a_1, ..., a_n), from one
    call of f and one of ``F.gradient``.

    An array of ``lam`` gives an array of values per action.  An action
    whose number of weights is not the number of coordinates of f raises
    ``DomainError``.
    """
    coords = tuple(as_coordinate(c) for c in f(lam))
    for action in actions:
        if len(action) != len(coords):
            raise DomainError(f"point has {len(coords)} coordinates, action has {len(action)}")
    grads = F.gradient(coords)
    return [sum(g * (1j * a * c) for g, a, c in zip(grads, action, coords))
            for action in actions]


@dataclass(frozen=True)
class QuadraticFit:
    """Constrained quadratic model -conj(psi0) lam^2 + i C lam + psi0; a
    stack of n fits has (n, 1) arrays for its fields."""

    psi0: complex
    C: float
    residual: float

    @property
    def circular_a(self) -> complex:
        """The constant in the equivalent form conj(a) lam^2 + C lam + a."""
        return -1j * self.psi0

    def evaluate(self, lam: complex) -> complex:
        return -self.psi0.conjugate() * lam * lam + 1j * self.C * lam + self.psi0


def _require_samples(lams: np.ndarray, minimum: int) -> None:
    if lams.size < minimum:
        raise FitError(f"need at least {minimum} samples, got {lams.size}")


def fit_quadratic_forms(lams: np.ndarray, values: np.ndarray) -> QuadraticFit:
    """Least-squares fits of the conjugate-coupled quadratic model to each
    row of ``values``, an (n, m) array sampled at the m points ``lams``.

    Unknowns are Re psi0, Im psi0 and the real C; the coupling between the
    lam^2 and constant coefficients is built into the (real) design matrix.
    The grid needs at least 8 distinct points and a design of full rank,
    else FitError; the checks depend on the grid alone and run once.  All
    rows are solved by one ``lstsq`` call with n right-hand sides, and each
    gets its own residual.
    """
    lams = np.asarray(lams, dtype=complex)
    values = np.asarray(values, dtype=complex)
    _require_samples(lams, 8)
    distinct = np.unique(np.round(lams.real, 12) + 1j * np.round(lams.imag, 12))
    if distinct.size < 8:
        raise FitError("sample points are not distinct enough")
    sq = lams * lams
    a, b, c, d = sq.real, sq.imag, lams.real, lams.imag
    # rows 2k and 2k + 1 match the real and imaginary parts of sample k
    matrix = np.stack([np.column_stack([1.0 - a, -b, -d]),
                       np.column_stack([-b, 1.0 + a, c])], axis=1).reshape(-1, 3)
    target = np.stack([values.real, values.imag], axis=-1).reshape(len(values), -1).T
    solution, _, rank, _ = np.linalg.lstsq(matrix, target, rcond=None)
    if rank < 3:
        raise FitError("rank-deficient fit (degenerate sample geometry)")
    fit = QuadraticFit((solution[0] + 1j * solution[1])[:, None], solution[2][:, None], 0.0)
    return replace(fit, residual=np.max(np.abs(fit.evaluate(lams) - values),
                                        axis=1, keepdims=True))


def fit_general_quadratics(lams: np.ndarray, values: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Unconstrained complex quadratic fits c0 + c1 lam + c2 lam^2 of each
    row of ``values`` (n, m) at the m points ``lams``, in one ``lstsq``
    call; returns (c0, c1, c2, residual) as (n, 1) arrays.

    Used as a cross-check that the constrained structure (c0 small / c1
    purely of the expected type / c2 = conj(c0)) emerges from the data
    rather than from the constraint.
    """
    lams = np.asarray(lams, dtype=complex)
    values = np.asarray(values, dtype=complex)
    _require_samples(lams, 3)
    design = np.vander(lams, 3, increasing=True)
    coeffs, _, rank, _ = np.linalg.lstsq(design, values.T, rcond=None)
    if rank < 3:
        raise FitError("rank-deficient fit")
    residual = np.max(np.abs(design @ coeffs - values.T), axis=0)
    return coeffs[0][:, None], coeffs[1][:, None], coeffs[2][:, None], residual[:, None]


class CheckVerdict(Enum):
    PASS = "pass"
    FIT_FAIL = "fit-fail"
    HYPOTHESIS_VIOLATION = "hypothesis-violation"


@dataclass(frozen=True)
class NecessaryCheckReport:
    """Outcome of the necessary check; for a stack of n discs the verdict,
    the fit fields and the hypothesis residual are (n, 1) arrays, and
    ``psi`` holds the (n, m) weighted sums the fit used (None with the fit)."""

    verdict: CheckVerdict
    fit: Optional[QuadraticFit]
    hypothesis_residual: float
    psi: Optional[np.ndarray]


def geodesic_necessary_checks(F: Callable, f: Callable, actions: Sequence[Tuple[float, ...]]
                              ) -> List[NecessaryCheckReport]:
    """Check the quadratic necessary condition for a stack of n certified
    geodesics under each rotation action: f and F hold stacked parameters,
    f evaluates to (n, m) arrays at m points, and F carries its closed-form
    ``gradient``.  Gives one report per action.

    First verifies the hypothesis F o f = id on the sampling grid for each
    disc, once for all actions (a violation is reported distinctly from a
    fit failure), then fits psi of every disc and action on the standard
    grid in one ``fit_quadratic_forms`` call, and passes a disc iff its
    worst deviation stays below ``ANALYTIC_TOL``.  When no disc satisfies
    the hypothesis, psi is not evaluated and the fits are None.
    """
    hyp = np.reshape(left_inverse_residual(f, F), (-1, 1))
    violated = hyp > HYPOTHESIS_TOL
    if violated.all():
        verdict = np.full(hyp.shape, CheckVerdict.HYPOTHESIS_VIOLATION)
        return [NecessaryCheckReport(verdict, None, hyp, None) for _ in actions]
    lams = fit_grid()
    psi = np.concatenate([np.broadcast_to(values, (len(hyp), lams.size))
                          for values in psi_of_lambda(F, f, actions, lams)])
    fits = fit_quadratic_forms(lams, psi)
    reports = []
    for k in range(len(actions)):
        rows = slice(k * len(hyp), (k + 1) * len(hyp))
        fit = QuadraticFit(fits.psi0[rows], fits.C[rows], fits.residual[rows])
        verdict = np.where(violated, CheckVerdict.HYPOTHESIS_VIOLATION,
                           np.where(fit.residual < ANALYTIC_TOL, CheckVerdict.PASS,
                                    CheckVerdict.FIT_FAIL))
        reports.append(NecessaryCheckReport(verdict, fit, hyp, psi[rows]))
    return reports
