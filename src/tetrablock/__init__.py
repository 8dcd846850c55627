"""Invariant distances, extremal maps and complex geodesics on the
tetrablock and the symmetrized bidisc."""

__version__ = "1.3.0"

from .errors import BranchError, DomainError, FitError, PoleError
from .hyperbolic import (BlaschkeMap, HyperbolicDistance, blaschke_eval,
                         disc_automorphism, mobius_distance, mobius_m,
                         schwarz_pick_check)
from .domains import (G2MembershipReport, G2Point, Location, MembershipReport,
                      TetraPoint, g2_membership, g2_roots, psi_sup,
                      rho_functional, tetra_e_value, tetra_membership)
from .extremals import (CoordinateMap, ExtremalFamily, G2FMap, MagicFMap,
                        PsiOmegaMap, caratheodory_lower_bound,
                        f_omega_automorphism, family_bounds, g2_f, magic_f,
                        p_e, psi_eta, sigma)
from .geodesics import (DiscSearchResult, DiscVerdict,
                        DiscVerificationReport, G2GeodesicParams, GeneralDiscParams,
                        OriginGeodesicParams, OriginGeodesicSolution, PairReport,
                        TransportClass, axis_pair, blaschke_interp_origin,
                        boundary_disc, certified_left_inverse, disc_coords,
                        disc_search_upper_bound, eval_boundary_disc,
                        eval_general_disc, eval_origin_geodesic,
                        g2_origin_geodesic, g2_geodesic_disc,
                        g2_violation_witness, general_disc,
                        is_product_geodesic, left_inverse_residual,
                        lempert_special, origin_geodesic_disc, origin_lempert,
                        pair_report, product_disc, sample_grid,
                        solve_origin_geodesic_through, transport_disc,
                        transported_extremal, transported_extremal_disc,
                        verify_disc)
from .necessary import (CheckVerdict, CircularAction, G2_ACTION,
                        NecessaryCheckReport, QuadraticFit,
                        TETRABLOCK_ACTIONS, fit_general_quadratic,
                        fit_general_quadratics, fit_grid, fit_quadratic_form,
                        fit_quadratic_forms, geodesic_necessary_check,
                        geodesic_necessary_checks, numeric_gradient,
                        psi_of_lambda, reinhardt_check, vector_field)
from .verify import ALL_SUITES, SuiteResult, run_suites

# Nothing here computes with scipy. Two benchmark readers still need it:
# perfbench/worker.py:import_times takes min() over scipy's entries in
# ``python -X importtime -c "import tetrablock"`` and fails without them, and
# the environment block of perfbench/run.py reads scipy's installed version.
# The bare import costs about 20 ms, as scipy loads its submodules lazily.
# ROADMAP item 5 drops both readers, then this line and the dependency.
import scipy  # noqa: E402,F401
