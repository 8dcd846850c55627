"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every criterion runs at a pinned tolerance through the verification suites
in ``tetrablock.verify``, each at the one size fixed in its body; the seed
is fixed so the whole gate is reproducible.  Each gate also holds the work
counts its suite reports, so a suite that samples less fails here.
"""

from tetrablock.verify import (suite_boundary, suite_certificate, suite_g2_window,
                               suite_inclusion, suite_lempert, suite_membership,
                               suite_necessary, suite_rho, suite_separation,
                               suite_transport)

SEED = 20260808


def _gate(criterion: str, result, **counts) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {criterion}: {result.summary()}")
    assert result.passed, f"{criterion} failed: {result.details}"
    assert {key: result.details[key] for key in counts} == counts


def test_criterion_01_boundary_disc_identity():
    # 10^3 random boundary discs x 10^2 samples: |e - 1| < 1e-12
    _gate("criterion-01-boundary-identity", suite_boundary(seed=SEED),
          discs=1000, samples_per_disc=100)


def test_criterion_02_general_disc_inclusion():
    # 10^3 random general discs x 10^2 samples: e < 1, zero violations
    _gate("criterion-02-disc-inclusion", suite_inclusion(seed=SEED),
          discs=1000, samples_per_disc=100)


def test_criterion_03_geodesic_certificate():
    # 200 random origin geodesics: left-inverse residual < 1e-10 and
    # m(0, certified value) = |lam| to 1e-12
    _gate("criterion-03-geodesic-certificate", suite_certificate(seed=SEED), params=200)


def test_criterion_04_lempert_closed_form():
    # 10 x 10 grid: search within 1e-14 of the closed form, and the
    # transported extremal realizes the value exactly
    _gate("criterion-04-lempert-closed-form", suite_lempert(), pairs=100)


def test_criterion_05_lower_bound_separation():
    # p_e = 0.068966 +- 1e-6, magic lower bound = 0.070711 +- 1e-6, strict
    _gate("criterion-05-separation", suite_separation())


def test_criterion_06_necessary_condition():
    # fits < 1e-7 for all certified geodesics under both three-coordinate
    # actions; two-coordinate grid fits with a = 0 and C real to 1e-9
    _gate("criterion-06-necessary-condition", suite_necessary(seed=SEED),
          origin_params=200, g2_grid=21)


def test_criterion_07_g2_parameter_window():
    # membership + left inverse on the [1, 2] grid; witnesses outside
    _gate("criterion-07-g2-window", suite_g2_window(seed=SEED), grid_points=168)


def test_criterion_08_membership_cross_check():
    # 10^4 random points, sign agreement outside the 1e-6 boundary band
    _gate("criterion-08-membership-cross-check", suite_membership(seed=SEED),
          points=10000)


def test_criterion_09_gauge_homogeneity():
    # 100 random scaling pairs, deviation < 1e-13
    _gate("criterion-09-gauge-homogeneity", suite_rho(seed=SEED), pairs=100)


def test_criterion_10_transport_dichotomy():
    # 200 random discs: automorphism -> boundary, scale 0.9 -> interior
    _gate("criterion-10-transport-dichotomy", suite_transport(seed=SEED), discs=200)
