"""Invariant distances, extremal maps and complex geodesics on the
tetrablock and the symmetrized bidisc."""

__version__ = "1.14.0"

from .errors import DomainError, FitError, PoleError
from .hyperbolic import (BlaschkeMap, HyperbolicDistance, disc_automorphism,
                         mobius_distance, mobius_m)
from .domains import (G2MembershipReport, G2Point, Location, MembershipReport,
                      TetraPoint, g2_membership, g2_roots, psi_sup,
                      rho_functional, tetra_e_value, tetra_membership)
from .extremals import (FamilyBounds, G2FMap, PsiOmegaMap,
                        caratheodory_lower_bound, f_omega_automorphism,
                        family_bounds, p_e, psi_eta, sigma)
from .geodesics import (DiscSearchResult, DiscVerdict,
                        DiscVerificationReport, G2GeodesicParams, GeneralDiscParams,
                        OriginGeodesicParams, OriginGeodesicSolution, PairReport,
                        TransportClass, axis_pair, blaschke_interp_origin,
                        boundary_disc, certified_left_inverse, disc_coords,
                        disc_search_upper_bound, eval_general_disc,
                        eval_origin_geodesic, g2_origin_geodesic,
                        g2_geodesic_disc, g2_violation_witness, general_disc,
                        left_inverse_residual, lempert_special,
                        origin_geodesic_disc, origin_lempert, pair_report,
                        sample_grid, solve_origin_geodesic_through,
                        transport_disc, verify_disc)
from .necessary import (CheckVerdict, G2_ACTION, NecessaryCheckReport,
                        QuadraticFit, TETRABLOCK_ACTIONS,
                        fit_general_quadratics, fit_grid, fit_quadratic_forms,
                        geodesic_necessary_checks, psi_of_lambda)
from .verify import ALL_SUITES, SuiteResult, run_suites

# Nothing here computes with scipy. Two benchmark readers still need it:
# perfbench/worker.py:import_times takes min() over scipy's entries in
# ``python -X importtime -c "import tetrablock"`` and fails without them, and
# the environment block of perfbench/run.py reads scipy's installed version.
# The bare import costs about 20 ms, as scipy loads its submodules lazily.
# ROADMAP item 4 drops both readers, then this line and the dependency.
import scipy  # noqa: E402,F401
