"""The symmetric-lift route: m_B(S(w), +-S(z)), the Mobius distance of the
2 x 2 matrix ball between the symmetric lifts of a pair, bounds the Lempert
function of every interior pair.  The kernel is held to a 50-digit oracle,
the bound to c_lower and to the closed routes it reproduces, and the route
to its place at the end of the search chain."""

import json
import math

import mpmath
import numpy as np
import pytest

from tetrablock import geodesics
from tetrablock.cli import main
from tetrablock.domains import TetraPoint, rho_functional
from tetrablock.extremals import caratheodory_lower_bound, sigma
from tetrablock.geodesics import disc_search_upper_bound, lempert_special
from tetrablock.verify import random_interior_points, random_unimodular

from oracles import (ball_distance, ball_norm, diagonal_pairs, diagonal_point, f_omega,
                     negated_lift, symmetric_lift)
from test_pair_report import route_pair


def lift_bound(w, z) -> float:
    return geodesics._symmetric_lift_bound(TetraPoint.of(w), TetraPoint.of(z))[0].m_scale


def kernel(w, z, sign):
    """m_B(S(w), sign S(z)) from the kernel, with the route's lifts."""
    w, z = TetraPoint.of(w), TetraPoint.of(z)
    s, t = geodesics._symmetric_lift(w)[0], geodesics._symmetric_lift(z)[0]
    return geodesics._ball_m(w.z1, s, w.z2, w.z3, z.z1, sign * t, z.z2, z.z3)[0]


def oracle(w, z, sign):
    lift = symmetric_lift(z)
    return ball_distance(symmetric_lift(w), lift if sign > 0 else negated_lift(lift))


def generic_pairs(seed, n, max_norm=1.0):
    """Consecutive points of ``random_interior_points`` as pairs, both lifts
    of norm at most ``max_norm``."""
    points = [z for z in random_interior_points(np.random.default_rng(seed), 2 * n)
              if rho_functional(z) <= max_norm]
    return list(zip(points[::2], points[1::2]))


def off_slice(rng, z, offset):
    """z moved off the product slice: z3 = z1 z2 + offset e^{i theta}."""
    turn = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return TetraPoint(z.z1, z.z2, z.z1 * z.z2 + offset * turn)


def close_pair(rng, w, scale):
    step = rng.normal(size=3) + 1j * rng.normal(size=3)
    return w, TetraPoint(*(np.array(w) + scale * step / np.linalg.norm(step)))


def test_kernel_matches_the_oracle_away_from_the_product_slice():
    # both roots of the pencil: m^2 <= 1/2 takes the larger root, beyond it
    # 1 - m^2 comes from the determinant identities
    forms = set()
    for w, z in generic_pairs(0, 150, max_norm=0.99):
        for sign in (1.0, -1.0):
            exact = oracle(w, z, sign)
            forms.add(exact * exact > 0.5)
            assert abs(kernel(w, z, sign) - exact) <= 1e-15
    assert forms == {False, True}


def test_kernel_matches_the_oracle_next_to_the_product_slice():
    # q = z1 z2 - z3 is 1e-7 here and formed correctly rounded; the naive
    # q of doubles missed the oracle by up to 2.4e-13 on these pairs, since
    # s = sqrt(q) magnifies a rounding of q
    rng = np.random.default_rng(1)
    pairs = []
    for w, z in generic_pairs(1, 60, max_norm=0.9):
        pairs.append((off_slice(rng, w, 1e-7), off_slice(rng, z, 1e-7)))
        near = off_slice(rng, w, 1e-7)
        pairs.append((near, off_slice(rng, close_pair(rng, near, 1e-4)[1], 1e-7)))
    for w, z in pairs:
        for sign in (1.0, -1.0):
            assert abs(kernel(w, z, sign) - oracle(w, z, sign)) <= 1e-15


def test_kernel_next_to_the_boundary():
    # ||S(w)|| = 1 - 1e-9 and z = (1 - 1e-8) w: I - A* A is formed to 1e-16
    # against its smaller eigenvalue of about 1e-9, so the kernel is good to
    # about 1e-7 here (2.2e-8 on these pairs).  Taking 1 - m^2 from a second
    # pencil instead of the determinant identities missed by up to 2.5e-2
    for w, _ in generic_pairs(6, 40):
        scale = (1.0 - 1e-9) / rho_functional(w)
        w = TetraPoint(scale * w.z1, scale * w.z2, scale * scale * w.z3)
        z = TetraPoint(*(np.array(w) * (1.0 - 1e-8)))
        for sign in (1.0, -1.0):
            assert abs(kernel(w, z, sign) - oracle(w, z, sign)) <= 1e-7


def test_lift_of_a_point_is_correctly_rounded():
    rng = np.random.default_rng(2)
    for z in random_interior_points(rng, 200):
        z = off_slice(rng, z, 1e-9)
        s, residual = geodesics._symmetric_lift(z)
        (_, exact), _ = symmetric_lift(z)
        assert abs(s - complex(exact)) <= 2.0 * math.ulp(abs(s))
        assert residual <= (4.0 * math.ulp(abs(s * s))) ** 2


def test_norm_of_a_lift_is_the_gauge():
    # m_B(0, S(z)) = ||S(z)|| = rho(z).  The kernel is within 1.9 ulps of
    # the 50-digit norm on these points; rho_functional, a different closed
    # form, is off by up to 3.6 ulps at one of them, so the two agree to 3
    for z in random_interior_points(np.random.default_rng(0), 2000):
        s = geodesics._symmetric_lift(z)[0]
        norm = geodesics._ball_m(0j, 0j, 0j, 0j, z.z1, s, z.z2, z.z3)[0]
        assert abs(norm - rho_functional(z)) <= 3.0 * math.ulp(norm)
        assert abs(norm - ball_norm(symmetric_lift(z))) <= 2.0 * math.ulp(norm)


def bound_classes(seed):
    """Forty seeded pairs of each class the bound is held to c_lower on."""
    rng = np.random.default_rng(seed)
    classes = {route: [route_pair(route, rng) for _ in range(40)]
               for route in ("axis-pair", "product", "origin-geodesic")}
    classes["diagonal"] = [(diagonal_point(a), diagonal_point(b))
                           for a, b in diagonal_pairs(seed, 40, radius=0.7)]
    classes["generic"] = generic_pairs(seed, 40)
    classes["close"] = [close_pair(rng, w, 1e-4) for w, _ in generic_pairs(seed + 1, 40, 0.99)]
    return classes


@pytest.mark.parametrize("name", ["axis-pair", "product", "origin-geodesic", "diagonal",
                                  "generic", "close"])
def test_bound_holds_c_lower(name):
    for w, z in bound_classes(0)[name]:
        assert lift_bound(w, z) >= caratheodory_lower_bound(w, z).m_scale - 1e-15


def test_bound_is_the_axis_value_on_axis_pairs():
    for w, z in bound_classes(0)["axis-pair"]:
        c, y, _, _ = geodesics.axis_pair(w, z)
        assert abs(lift_bound(w, z) - lempert_special(y, c).m_scale) <= 1e-14


def test_bound_is_the_product_route_on_product_pairs():
    for w, z in bound_classes(0)["product"]:
        result = disc_search_upper_bound(w, z)
        assert result.family == "product"
        assert abs(lift_bound(w, z) - result.bound.m_scale) <= 1e-14


def test_bound_is_symmetric_and_invariant():
    # sigma and the argument swap move no input bit, f_omega rounds the
    # rotated coordinates, and the kernel rounds each order of the entries
    # its own way.  The largest gaps here are 3.3e-16 (swap), 1.1e-16
    # (sigma) and 2.2e-16 (f_omega)
    rng = np.random.default_rng(3)
    for w, z in generic_pairs(0, 40):
        k = lift_bound(w, z)
        omega = random_unimodular(rng)
        assert abs(lift_bound(z, w) - k) <= 1e-15
        assert abs(lift_bound(sigma(w), sigma(z)) - k) <= 1e-15
        assert abs(lift_bound(f_omega(omega, w), f_omega(omega, z)) - k) <= 1e-15


def test_route_ends_the_chain_on_generic_pairs():
    for w, z in generic_pairs(4, 25):
        result = disc_search_upper_bound(w, z)
        bound, sign, residual = geodesics._symmetric_lift_bound(w, z)
        assert result.found and result.family == "symmetric-lift"
        assert result.bound == bound and result.residual == residual
        assert result.reason.startswith(f"symmetric-lift: sign {sign}, after general-disc: "
                                        f"{result.starts} starts, {result.evaluations} "
                                        "evaluations, best residual ")
        assert residual < 1e-30


def test_route_runs_only_where_the_general_disc_finds_nothing(monkeypatch):
    def no_lift(w, z):
        raise AssertionError("the lift route ran")

    monkeypatch.setattr(geodesics, "_symmetric_lift_bound", no_lift)
    for route in ("axis-pair", "product", "origin-geodesic", "general-disc"):
        rng = np.random.default_rng(5)
        for _ in range(10):
            assert disc_search_upper_bound(*route_pair(route, rng)).family == route


def test_far_pair_next_to_the_boundary_keeps_a_finite_p_scale(capsys):
    # 1 - k_sym^2 is about 1e-18 here, below the rounding of 1: the m-scale
    # rounds to 1 and the p-scale comes from 1 - m^2 (the 50-digit p-scale
    # is 21.1433853...), where from_m would reject m = 1 and `distance` exit
    # 65 on a pair it reports with an exit of 0 otherwise
    w, z = random_interior_points(np.random.default_rng(0), 20)[4:6]
    w, z = ((lambda scale: TetraPoint(scale * p.z1, scale * p.z2, scale * scale * p.z3))(
        (1.0 - 3e-10) / rho_functional(p)) for p in (w, z))
    result = disc_search_upper_bound(w, z)
    assert result.family == "symmetric-lift"
    lift = symmetric_lift(z)
    exact = min(ball_distance(symmetric_lift(w), b) for b in (lift, negated_lift(lift)))
    assert result.bound.m_scale == 1.0 > exact
    with mpmath.workdps(50):
        assert abs(result.bound.p_scale - mpmath.atanh(exact)) <= 1e-6
    code = main(["distance", "--json", "--",
                 *(",".join(f"({c.real!r}{c.imag:+}j)" for c in p) for p in (w, z))])
    res = json.loads(capsys.readouterr().out)["results"]
    assert code == 0 and res["sandwich_ok"] is True
    assert res["k_upper"] == {"m_scale": 1.0, "p_scale": result.bound.p_scale}
