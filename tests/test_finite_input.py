"""Kernels on finite input: a value that is finite or inf, or DomainError.

Every kernel below is given finite numbers of any size (subnormal up to
1.7e308) in its record fields and points.  It must return values without
NaN, or raise ``DomainError``, and it must not warn: a warning is an error
here, as under ``python -W error``.  The disc evaluators and Blaschke maps
are defined on the open unit disc; the validated entry point
``eval_origin_geodesic`` and a general disc behind ``require_disc_point``
take any finite lam, and
the maps the disc builders return take points of the open disc and arrays
of them.  The pair kernels, from the Caratheodory lower
bounds to the pair report, take two such points.  The family maps and
their gradients (``PsiOmegaMap`` and ``G2FMap``) may also raise
``PoleError``, a kind of ``DomainError``.
"""

import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tetrablock.domains import (MAP_COORDINATE_MAX, G2Point, TetraPoint, e_value_raw, psi_sup,
                               require_map_point, rho_functional)
from tetrablock.errors import DomainError
from tetrablock.extremals import (G2FMap, PsiOmegaMap, caratheodory_lower_bound,
                                  family_bounds, p_e)
from tetrablock.geodesics import (GeneralDiscParams, OriginGeodesicParams,
                                  boundary_disc, disc_search_upper_bound,
                                  eval_origin_geodesic, general_disc,
                                  origin_geodesic_disc, pair_report)
from tetrablock.hyperbolic import BlaschkeMap, modulus, require_disc_point
from tetrablock.verify import PHI_KINDS, random_phi_pinned

finite = st.floats(allow_nan=False, allow_infinity=False)
finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False)
open_disc = st.complex_numbers(max_magnitude=1.0, allow_nan=False).filter(lambda z: abs(z) < 1.0)
unimodular = st.floats(-10.0, 10.0).map(lambda t: cmath.exp(1j * t))
# mostly in range, sometimes any finite number
coefficient = st.one_of(st.floats(0.0, 1.0), finite)
point_of_disc = st.one_of(open_disc, finite_complex)
unit_factor = st.one_of(unimodular, finite_complex)
checked = settings(max_examples=150, deadline=None, derandomize=True)
#: coordinate parts from subnormal to near the float limit, around the
#: scales where the interior ends
MAGNITUDES = (0.0, 5e-324, 1e-320, 1e-300, 1e-160, 1e-16, 1e-8, 0.3, 0.49, 0.7,
              0.999999, 1e155, 1.7e308)
signed_part = st.builds(lambda m, sign: sign * m, st.sampled_from(MAGNITUDES),
                        st.sampled_from((1.0, -1.0)))
pair_coordinate = st.one_of(st.builds(complex, signed_part, signed_part), finite_complex)
pair_point = st.tuples(pair_coordinate, pair_coordinate, pair_coordinate).map(
    lambda c: TetraPoint(*c))


def has_nan(value) -> bool:
    parts = value if isinstance(value, TetraPoint) else (value,)
    return any(np.isnan(np.asarray(part, dtype=complex)).any() for part in parts)


def attempt(fn, *args):
    """fn(*args), or None when it raises DomainError; a warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(*args)
        except DomainError:
            return None


def outcome(fn, *args):
    """``attempt`` for a kernel whose values must hold no NaN."""
    value = attempt(fn, *args)
    assert value is None or not has_nan(value), (fn, args, value)
    return value


def column(values):
    return np.array(values)[:, None]


@st.composite
def blaschke_maps(draw, n=None):
    """A scalar map (n None) or a stack of n maps of one degree, from finite
    fields that are valid more often than not."""
    degree = draw(st.integers(0, 2))
    size = 1 if n is None else n

    def field(strategy):
        values = draw(st.lists(strategy, min_size=size, max_size=size))
        return values[0] if n is None else column(values)

    if degree == 0:
        return BlaschkeMap.constant(field(point_of_disc))
    return BlaschkeMap(field(unit_factor), tuple(field(point_of_disc) for _ in range(degree)),
                       field(coefficient))


def disc_points(draw, n, m):
    return np.array(draw(st.lists(open_disc, min_size=n * m, max_size=n * m))).reshape(n, m)


@given(st.one_of(st.lists(finite_complex, min_size=3, max_size=24),
                 st.lists(pair_coordinate, min_size=3, max_size=3)))
# scaled by 2^-1024, q is subnormal, and numpy's complex quotient by it
# overflowed in the gauge of a block
@example([1j, 8.98846567431158e307j, 0j])
# as numpy scalars, e_value_raw warned "overflow" on the first and
# "invalid" on the second, under np.errstate(over="ignore") too
@example([0.5, 0j, 1e200j])
@example([0j, 1e200 + 1e200j, 1e200 - 1e200j])
@example([5e-324j, 1.7e308 - 1e-320j, -1.7e308 + 1.7e308j])
@checked
def test_point_kernels(coordinates):
    k = len(coordinates) // 3
    blocks = [np.array(coordinates[j * k:(j + 1) * k]) for j in range(3)]
    for point in (TetraPoint(*coordinates[:3]), TetraPoint(*blocks)):
        outcome(e_value_raw, *point)
        outcome(psi_sup, point)
        outcome(rho_functional, point)
    # numpy scalars, as unpacking an array gives them, make a scalar point
    scalars = np.array(coordinates[:3])
    assert outcome(e_value_raw, *scalars) == e_value_raw(*coordinates[:3])


def oracle_psi_sup(z1: complex, z2: complex, z3: complex) -> float:
    """The closed form of ``psi_sup`` in Python complex arithmetic, with
    complex moduli."""
    r1 = modulus(z1)
    return (modulus(z2 - z1.conjugate() * z3) + modulus(z1 * z2 - z3)) / ((1.0 - r1) * (1.0 + r1))


def extreme_coordinates(rng, n: int, top: float):
    """n complex numbers of every scale from subnormal up to parts of
    ``top``: most with both parts of one scale, where moduli round hardest,
    some with parts of unrelated scales; a tenth of the parts are zero."""
    scale, own = (10.0 ** rng.uniform(-323.5, math.log10(top), size) for size in (n, (2, n)))
    parts = np.where(rng.uniform(size=(2, n)) < 0.3, own, scale * rng.uniform(size=(2, n)))
    parts *= rng.choice((-1.0, 1.0), (2, n)) * (rng.uniform(size=(2, n)) >= 0.1)
    return parts[0] + 1j * parts[1]


def test_psi_sup_point_equals_block():
    rng = np.random.default_rng(61)
    n = 20000
    # z1 inside the disc (parts up to 0.7), z2 and z3 up to 1.7e308
    z1, z2, z3 = (extreme_coordinates(rng, n, top) for top in (0.7, 1.7e308, 1.7e308))
    block = psi_sup(TetraPoint(z1, z2, z3))
    for k in range(n):
        point = complex(z1[k]), complex(z2[k]), complex(z3[k])
        value, oracle = psi_sup(TetraPoint(*point)), oracle_psi_sup(*point)
        assert value == block[k], (point, value, block[k])
        if math.isinf(oracle):
            assert math.isinf(value), (point, value)
        else:
            assert math.isfinite(value) and abs(value - oracle) <= 1e-14 * oracle, \
                (point, value, oracle)


def oracle_gauge(z1: complex, z2: complex, z3: complex) -> float:
    """The closed form of ``rho_functional`` in Python complex arithmetic,
    with complex moduli, at the point scaled by a power of two; beyond the
    float range, OverflowError."""
    e = math.frexp(max(abs(z1.real), abs(z1.imag), abs(z2.real), abs(z2.imag),
                       math.sqrt(max(abs(z3.real), abs(z3.imag)))))[1]
    z1, z2 = (complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in (z1, z2))
    z3 = complex(math.ldexp(z3.real, -2 * e), math.ldexp(z3.imag, -2 * e))
    q = z1 * z2 - z3
    c = modulus(q)
    w = modulus(z1 + z2.conjugate() * q / c) if c else 0.0
    s1, s2 = modulus(z1) ** 2, modulus(z2) ** 2
    gauge = math.sqrt(c + 0.5 * (s1 + s2 + math.sqrt((s2 - s1) ** 2 + 4.0 * c * w * w)))
    return math.ldexp(gauge, e)


def test_rho_functional_point_equals_block():
    rng = np.random.default_rng(67)
    # n points of every scale, and m with parts near the float limit, where
    # the gauge can exceed it
    n, m = 19000, 1000
    near_top = 1.7e308 * rng.uniform(0.3, 1.0, (2, 3, m)) * rng.choice((-1.0, 1.0), (2, 3, m))
    z1, z2, z3 = (np.concatenate([extreme_coordinates(rng, n, 1.7e308), x + 1j * y])
                  for x, y in zip(*near_top))
    finite, values = [], []
    for k in range(n + m):
        point = complex(z1[k]), complex(z2[k]), complex(z3[k])
        try:
            oracle = oracle_gauge(*point)
        except OverflowError:
            for z in (TetraPoint(*point), TetraPoint(*(np.array([x]) for x in point))):
                with pytest.raises(DomainError, match="float range"):
                    rho_functional(z)
            continue
        value = rho_functional(TetraPoint(*point))
        assert abs(value - oracle) <= 1e-14 * oracle, (point, value, oracle)
        finite.append(k)
        values.append(value)
    block = rho_functional(TetraPoint(z1[finite], z2[finite], z3[finite]))
    for k, value, in_block in zip(finite, values, block):
        assert value == in_block, (z1[k], z2[k], z3[k], value, in_block)


@given(st.lists(pair_coordinate, min_size=3, max_size=12), st.one_of(unimodular, pair_coordinate),
       st.one_of(unimodular, pair_coordinate), st.booleans())
# eta far outside the disc, and a point beyond 1e100: (eta z1 - 1) ** 2
# raised OverflowError in the Psi and G2 gradients
@example([1j, 0j, 0j], 1e155j, 1.0, False)
@example([1e200, 1e-3, 0j], 1.0, 1.0, True)
@checked
def test_family_maps(coordinates, eta, factor, swap):
    k = len(coordinates) // 3
    blocks = [np.array(coordinates[j * k:(j + 1) * k]) for j in range(3)]
    psi = attempt(lambda: PsiOmegaMap(eta, swap_first=swap, factor=factor))
    g2 = attempt(lambda: G2FMap(eta))
    for point in (TetraPoint(*coordinates[:3]), TetraPoint(*blocks)):
        pair = G2Point(point.z1, point.z2)
        # one check rejects a point for value and gradient alike
        if psi is not None:
            assert (outcome(psi, point) is None) == (outcome(psi.gradient, point) is None)
        if g2 is not None:
            assert (outcome(g2, pair) is None) == (outcome(g2.gradient, pair) is None)


def test_map_point_bound_is_by_part_in_a_block():
    # parts at the bound pass however many there are, though their squares
    # sum past the one-pass test; one part just beyond it, or a NaN, among
    # small ones fails
    n = 10000
    at_bound = np.full(n, MAP_COORDINATE_MAX * (1 - 1j))
    require_map_point(TetraPoint(at_bound, at_bound, at_bound))
    require_map_point(TetraPoint(*np.full((3, n), 0.5 + 0.5j)))
    for bad in (np.nextafter(MAP_COORDINATE_MAX, math.inf), math.nan):
        block = np.full(n, 0.5j)
        block[n // 3] = complex(0.0, -bad)
        with pytest.raises(DomainError, match="coordinate parts"):
            require_map_point(TetraPoint(0.5j, block, 0.5j))


@given(st.data(), st.integers(1, 4))
@checked
def test_blaschke_stacks(data, n):
    b = attempt(lambda: data.draw(blaschke_maps(n)))
    scalar = attempt(lambda: data.draw(blaschke_maps()))
    lams = disc_points(data.draw, n, 3)
    if b is not None:
        for points in (lams, lams[0], complex(lams[0, 0])):
            outcome(b, points)
    if scalar is not None:
        outcome(scalar, complex(lams[0, 0]))
        outcome(scalar, lams)


@given(st.data(), coefficient, unit_factor, unit_factor, st.sampled_from(PHI_KINDS),
       st.integers(0, 2 ** 32 - 1), finite_complex)
@checked
def test_origin_geodesics(data, C, omega1, omega2, kind, seed, lam):
    # phi pinned at C clipped to its range [0, 1]; the record checks C itself
    phi = attempt(random_phi_pinned, np.random.default_rng(seed), min(max(C, 0.0), 1.0), kind)
    params = phi and attempt(OriginGeodesicParams, C, omega1, omega2, phi)
    if params is not None:
        outcome(eval_origin_geodesic, params, lam)
        outcome(origin_geodesic_disc(params), disc_points(data.draw, 1, 5)[0])


@given(st.data(), coefficient, unit_factor, unit_factor, finite_complex)
@checked
def test_general_and_boundary_discs(data, C, omega1, omega2, lam):
    phi = attempt(lambda: data.draw(blaschke_maps()))
    psi = attempt(lambda: data.draw(blaschke_maps()))
    lams = disc_points(data.draw, 1, 5)[0]
    params = phi and psi and attempt(GeneralDiscParams, C, omega1, omega2, phi, psi)
    if params is not None:
        outcome(lambda: general_disc(params)(require_disc_point(lam, name="lam")))
        outcome(general_disc(params), lams)
    disc = phi and attempt(boundary_disc, C, omega1, omega2, phi)
    if disc is not None:
        outcome(disc, complex(lams[0]))
        outcome(disc, lams)


def numbers(value) -> list:
    """The numbers a result holds, through its records and tuples."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, tuple):
        return [x for part in value for x in numbers(part)]
    return [value] if isinstance(value, (int, float, complex)) else []


@given(pair_point, pair_point)
# 1e-14 times the largest sextic coefficient underflowed to 0, and the
# Psi-family solve divided by a zero coefficient
@example(TetraPoint(0.49j, 1e-160, 0), TetraPoint(-1e-16j, 1e-160, 0))
# a subnormal phi at w: numpy's -a / |a| overflowed in the general-disc route
@example(TetraPoint(0.3, 1e-320j, 1e-320 - 0.3j), TetraPoint(1e-08, -0.49, 1e-8j))
@checked
def test_pair_kernels(w, z):
    for kernel in (family_bounds, p_e, caratheodory_lower_bound, disc_search_upper_bound,
                   pair_report):
        value = attempt(kernel, w, z)
        assert not any(map(cmath.isnan, numbers(value))), (kernel, w, z, value)
