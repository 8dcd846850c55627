"""The pair report: p_e, c_lower and the upper-bound search of a pair from
one call, with the same bits as the separate public functions, and the
sandwich verdicts at the two named tolerances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetrablock import extremals, geodesics
from tetrablock.domains import TetraPoint, is_interior
from tetrablock.errors import DomainError
from tetrablock.extremals import (FamilyBounds, caratheodory_lower_bound,
                                  family_bounds, p_e)
from tetrablock.geodesics import (SANDWICH_TOL, SEPARATION_TOL, GeneralDiscParams,
                                  disc_search_upper_bound, general_disc,
                                  lempert_special, pair_report)
from tetrablock.hyperbolic import BlaschkeMap
from tetrablock.verify import (random_disc_point, random_interior_points,
                               random_unimodular)

ROUTES = ["axis-pair", "product", "origin-geodesic", "general-disc", "generic"]


def route_pair(route, rng):
    """A seeded interior pair of one route class; a generic pair is two
    random interior points, which only the symmetric lifts bound.  A general-disc
    pair is two points of a random general disc, in one draw of three with
    phi zero at the first, so w3 = 0."""
    if route == "axis-pair":
        c = random_disc_point(rng, 0.6)
        y = random_disc_point(rng, 0.95 - abs(c))
        z = TetraPoint(0, y, c) if rng.uniform() < 0.5 else TetraPoint(y, 0, c)
        return TetraPoint(0, 0, c), z
    if route == "product":
        a1, a2, b1, b2 = (random_disc_point(rng, 0.8) for _ in range(4))
        return TetraPoint(a1, a2, a1 * a2), TetraPoint(b1, b2, b1 * b2)
    if route == "origin-geodesic":
        return TetraPoint(0, 0, 0), random_interior_points(rng, 1)[0]
    if route == "general-disc":
        lam_w, lam_z = random_disc_point(rng, 0.95), random_disc_point(rng, 0.95)
        zero = lam_w if rng.uniform() < 1 / 3 else random_disc_point(rng, 0.9)
        phi, psi = (BlaschkeMap(random_unimodular(rng), (a,), rng.uniform(0.3, 0.99))
                    for a in (zero, random_disc_point(rng, 0.9)))
        f = general_disc(GeneralDiscParams(rng.uniform(0.001, 0.999), random_unimodular(rng),
                                           random_unimodular(rng), phi, psi))
        return f(lam_w), f(lam_z)
    w, z = random_interior_points(rng, 2)
    return w, z


def fresh(function, *args):
    """``function(*args)`` from an empty Psi-family cache."""
    extremals._psi_family_bounds.cache_clear()
    return function(*args)


@pytest.mark.parametrize("route", ROUTES)
def test_report_has_the_bits_of_the_separate_calls(route):
    rng = np.random.default_rng(ROUTES.index(route))
    for _ in range(25):
        w, z = route_pair(route, rng)
        report = fresh(pair_report, w, z)
        assert report.p_e == fresh(p_e, w, z)
        assert report.c_lower == fresh(caratheodory_lower_bound, w, z)
        # the route labels the benchmark's pairs workload checks
        assert report.search == disc_search_upper_bound(w, z)
        assert report.search.found is True
        assert report.search.family == ("symmetric-lift" if route == "generic" else route)
        if route == "generic":
            bound, sign, _ = geodesics._symmetric_lift_bound(w, z)
            assert report.search.bound == bound
            assert report.search.reason.startswith(f"symmetric-lift: sign {sign}, "
                                                   "after general-disc: ")


@pytest.mark.parametrize("field", FamilyBounds._fields)
def test_lower_fields_are_the_family_bounds(field):
    w, z = random_interior_points(np.random.default_rng(11), 2)
    report = fresh(pair_report, w, z, False)
    bounds = fresh(family_bounds, w, z)
    assert isinstance(report.lower, FamilyBounds)
    assert getattr(report.lower, field) == getattr(bounds, field)
    assert report.c_lower.m_scale == max(bounds) >= getattr(bounds, field)


def test_one_eigenvalue_solve(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    w, z = random_interior_points(np.random.default_rng(12), 2)
    fresh(pair_report, w, z, False)
    assert calls == [(2, 6, 6)]


def test_no_search_when_search_is_off(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(geodesics, "disc_search_upper_bound", no_search)
    report = pair_report(TetraPoint(0, 0, -0.5), TetraPoint(0, 0.05, -0.5), search=False)
    assert report.search is None
    assert report.gap is None and report.sandwich_ok is None
    assert report.closed_form == lempert_special(0.05, -0.5)
    assert report.separated is True


def test_exterior_endpoint_rejected():
    with pytest.raises(DomainError, match="must be interior"):
        pair_report(TetraPoint(2, 0, 0), TetraPoint(0, 0, 0))


def test_named_tolerances():
    assert SANDWICH_TOL == 1e-9 and SEPARATION_TOL == 1e-12


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(ROUTES))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_sandwich_holds(seed, route):
    w, z = route_pair(route, np.random.default_rng(seed))
    assert is_interior(w) and is_interior(z)
    report = pair_report(w, z)
    assert report.p_e.m_scale <= report.c_lower.m_scale
    assert isinstance(report.lower, FamilyBounds)
    assert report.p_e.m_scale == max(report.lower.psi_omega, report.lower.psi_omega_sigma)
    assert report.c_lower.m_scale == max(report.lower)
    assert report.separated is (report.c_lower.m_scale > report.p_e.m_scale + SEPARATION_TOL)
    assert report.search.found
    k_upper = report.search.bound.m_scale
    assert report.c_lower.m_scale <= k_upper + SANDWICH_TOL
    assert report.sandwich_ok is True
    assert report.gap == k_upper - report.c_lower.m_scale
    assert math.isfinite(report.gap)
