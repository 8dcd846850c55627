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
from tetrablock.extremals import (TETRABLOCK_FAMILIES, ExtremalFamily,
                                  caratheodory_lower_bound, family_bounds, p_e)
from tetrablock.geodesics import (SANDWICH_TOL, SEPARATION_TOL,
                                  disc_search_upper_bound, lempert_special,
                                  pair_report)
from tetrablock.verify import random_disc_point, random_interior_points

ROUTES = ["axis-pair", "product", "origin-geodesic", "generic"]


def route_pair(route, rng):
    """A seeded interior pair of one route class; a generic pair is two
    random interior points, on which no route finds a bound."""
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
        assert report.search == disc_search_upper_bound(w, z)
        assert report.search.found is (route != "generic")
        if route != "generic":
            assert report.search.family == route


@pytest.mark.parametrize("lower", [[ExtremalFamily.MAGIC_F],
                                   [ExtremalFamily.PSI_OMEGA_SIGMA],
                                   [ExtremalFamily.PSI_OMEGA, ExtremalFamily.MAGIC_F]])
def test_lower_families_give_their_own_values(lower):
    w, z = random_interior_points(np.random.default_rng(11), 2)
    report = fresh(pair_report, w, z, lower, ())
    assert report.c_lower == fresh(caratheodory_lower_bound, w, z, lower)
    assert report.p_e == fresh(p_e, w, z)
    assert report.lower == dict(zip(lower, fresh(family_bounds, w, z, lower)))


def test_one_eigenvalue_solve(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    w, z = random_interior_points(np.random.default_rng(12), 2)
    fresh(pair_report, w, z, [ExtremalFamily.MAGIC_F], ())
    assert calls == [(2, 6, 6)]


def test_no_search_without_upper_families(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(geodesics, "disc_search_upper_bound", no_search)
    report = pair_report(TetraPoint(0, 0, -0.5), TetraPoint(0, 0.05, -0.5), upper=())
    assert report.search is None
    assert report.gap is None and report.sandwich_ok is None
    assert report.closed_form == lempert_special(0.05, -0.5)
    assert report.separated is True


def test_found_bound_beats_an_earlier_miss():
    w, z = TetraPoint(0, 0, -0.5), TetraPoint(0, 0.05, -0.5)
    report = pair_report(w, z, upper=("product", "axis-pair", "auto"))
    assert report.search == disc_search_upper_bound(w, z, family="axis-pair")
    missed = pair_report(w, z, upper=("product", "origin-geodesic"))
    assert missed.search == disc_search_upper_bound(w, z, family="product")
    assert not missed.search.found and missed.sandwich_ok is None


def test_empty_or_foreign_lower_families_rejected():
    z = TetraPoint(0.1, 0.05, 0.02)
    for lower in ([], [ExtremalFamily.G2_F_OMEGA], ["psi-omega"]):
        with pytest.raises(DomainError):
            pair_report(z, z, lower, ())


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
    assert set(report.lower) == set(TETRABLOCK_FAMILIES)
    assert report.c_lower.m_scale == max(report.lower.values())
    assert report.separated is (report.c_lower.m_scale > report.p_e.m_scale + SEPARATION_TOL)
    if report.search.found:
        k_upper = report.search.bound.m_scale
        assert report.c_lower.m_scale <= k_upper + SANDWICH_TOL
        assert report.sandwich_ok is True
        assert report.gap == k_upper - report.c_lower.m_scale
        assert math.isfinite(report.gap)
    else:
        assert report.gap is None and report.sandwich_ok is None
