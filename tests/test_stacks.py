"""Stacked maps and records against their members one by one.

A stacked ``BlaschkeMap`` or parameter record holds n members as (n, 1)
fields and is evaluated in one array call; each member, built as a scalar
record, must give the same values.  The seven stacked verification suites
are checked the same way: the references below redraw each suite's
parameters at its size in the suite's order, evaluate the first discs of
the draw one by one through the scalar records and the whole draw as
stacks, and must reproduce the suite's figures and verdicts.  Disc
transport fills in the value at lam = 0 only when a sample vanishes; it must
give the bits of a fill over every sample.  The division-free disc formula
and Blaschke product are held against the dividing formulas they replaced,
and the rejection sampler of the disc against its contract and, bit for
bit, against the one-array draw it replaced.
"""

import cmath
import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from tetrablock import geodesics, verify
from tetrablock.domains import (DEFAULT_BOUNDARY_TOL, TetraPoint, e_value_raw,
                               g2_roots, tetra_e_value)
from tetrablock.errors import DomainError
from tetrablock.extremals import G2FMap, PsiOmegaMap
from tetrablock.geodesics import (G2GeodesicParams, GeneralDiscParams,
                                  OriginGeodesicParams, TransportClass,
                                  boundary_disc, certified_left_inverse,
                                  disc_coords, disc_search_upper_bound,
                                  g2_geodesic_disc, general_disc,
                                  left_inverse_residual, origin_geodesic_disc,
                                  sample_grid, transport_disc)
from tetrablock.hyperbolic import (BlaschkeMap, HyperbolicDistance, mobius_m,
                                   require_disc_point, require_unimodular)
from tetrablock.necessary import (G2_ACTION, TETRABLOCK_ACTIONS, CheckVerdict,
                                  fit_general_quadratics, fit_grid,
                                  fit_quadratic_forms, geodesic_necessary_checks,
                                  psi_of_lambda)
from tetrablock.verify import (ALL_SUITES, key_groups, lempert_grid, random_disc_point,
                               random_disc_points, random_phi_pinned,
                               random_unimodular, random_self_maps,
                               sample_origin_stacks, suite_boundary,
                               suite_certificate, suite_g2_window,
                               suite_inclusion, suite_lempert,
                               suite_necessary, suite_transport)

from oracles import one_shot_disc_points

TOL = 1e-15
# numpy and Python complex division differ in the last digits, and the
# defining functional adds three moduli near 1: e-values agree to a few ulps
E_TOL = 8 * np.finfo(float).eps
# left-inverse values divide by eta z1 - 1, which magnifies last-digit
# differences, and residuals are rounding errors themselves: these agree to
# 1e-14, as in the array-path tests
ROUNDING_TOL = 1e-14


def column(values):
    return np.asarray(values)[:, None]


def raw_maps(rng, degree, n=7):
    """n maps of one degree, as raw fields, with scales below 1."""
    return {"factor": random_unimodular(rng, n),
            "zeros": random_disc_points(rng, (degree, n), 0.9),
            "scale": rng.uniform(0.3, 1.0, size=n),
            "constant": random_disc_points(rng, n, 0.95)}


def stacked_and_single(raw, degree):
    if degree == 0:
        stack = BlaschkeMap.constant(column(raw["constant"]))
        single = [BlaschkeMap.constant(complex(c)) for c in raw["constant"]]
        return stack, single
    stack = BlaschkeMap(column(raw["factor"]), tuple(column(a) for a in raw["zeros"]),
                        column(raw["scale"]))
    single = [BlaschkeMap(complex(u), tuple(complex(a) for a in zeros), float(s))
              for u, zeros, s in zip(raw["factor"], raw["zeros"].T, raw["scale"])]
    return stack, single


# ---------------------------------------------------------------------------
# BlaschkeMap stacks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_stacked_blaschke_map_matches_members(degree):
    rng = np.random.default_rng(100 + degree)
    stack, single = stacked_and_single(raw_maps(rng, degree), degree)
    assert stack.degree == degree
    lams = random_disc_points(rng, 11, 0.95)
    per_disc = random_disc_points(rng, (len(single), 5), 0.95)
    for values, derivs, points in ((stack(lams), stack.derivative(lams), lams[None]),
                                   (stack(per_disc), stack.derivative(per_disc), per_disc)):
        assert values.shape == derivs.shape == (len(single), points.shape[-1])
        for k, member in enumerate(single):
            row = np.broadcast_to(points, values.shape)[k]
            for j, lam in enumerate(row):
                assert abs(values[k, j] - member(complex(lam))) <= TOL
                assert abs(derivs[k, j] - member.derivative(complex(lam))) <= 4 * TOL
    # a scalar point gives one value per member, as a column
    at_point = stack(0.3 - 0.2j)
    assert at_point.shape == (len(single), 1)
    for k, member in enumerate(single):
        assert abs(at_point[k, 0] - member(0.3 - 0.2j)) <= TOL
    assert stack.split() == single


def test_scalar_map_returns_python_complex():
    maps = [BlaschkeMap.constant(0.2), BlaschkeMap(1j, (0.3,), 0.5), BlaschkeMap(zeros=())]
    for b in maps:
        for lam in (0.25, 0.1 - 0.2j, np.complex128(0.3j), np.float64(-0.4)):
            assert type(b(lam)) is complex
            assert type(b.derivative(lam)) is complex
        grid = np.array([0.1, 0.2j, -0.3])
        assert b(grid).shape == b.derivative(grid).shape == (3,)
        for value, lam in zip(b(grid), grid):
            assert abs(value - b(complex(lam))) <= TOL


def test_automorphism_flag_per_member():
    stack = BlaschkeMap(column([1.0, 1j]), (column([0.2, 0.3j]),), column([1.0, 0.5]))
    automorphic = stack.degree == 1 and stack.scale >= 1.0 - 1e-12
    assert automorphic.ravel().tolist() == [True, False]


@pytest.mark.parametrize("fields", [
    dict(unimodular_factor=column([1.0, 1.1]), zeros=(column([0.1, 0.2]),)),
    dict(zeros=(column([0.1, 1.0]),)),
    dict(zeros=(column([0.1, 0.2]),), scale=column([0.5, 1.5])),
    dict(zeros=(column([0.1, 0.2]),), scale=column([0.5, np.nan])),
    dict(c=column([0.5, 1.01])),
])
def test_stack_validation_per_entry(fields):
    make = BlaschkeMap.constant if "c" in fields else BlaschkeMap
    with pytest.raises(DomainError):
        make(**fields)


def test_record_validation_per_entry():
    phi = BlaschkeMap.constant(column([-0.2, -0.3]))
    OriginGeodesicParams(column([0.2, 0.3]), 1.0, column([1.0, 1j]), phi)
    with pytest.raises(DomainError):
        OriginGeodesicParams(column([0.2, 0.4]), 1.0, 1.0, phi)
    with pytest.raises(DomainError):
        OriginGeodesicParams(column([0.2, 0.3]), column([1.0, 2.0]), 1.0, phi)
    psi = BlaschkeMap.identity()
    GeneralDiscParams(column([0.0, 0.9]), 1.0, 1.0, phi, psi)
    with pytest.raises(DomainError):
        GeneralDiscParams(column([0.0, 1.0]), 1.0, 1.0, phi, psi)
    with pytest.raises(DomainError):
        GeneralDiscParams(0.5, 1.0, 1.0, BlaschkeMap.constant(column([0.5, 1.0])), psi)
    with pytest.raises(DomainError):
        G2GeodesicParams(column([1.0, 2.5]), 1.0)


def test_origin_record_split_round_trip():
    for stack in sample_origin_stacks(np.random.default_rng(3), 9):
        members = stack.split()
        values = origin_geodesic_disc(stack)(fit_grid())
        for k, params in enumerate(members):
            for j, lam in enumerate(fit_grid()):
                point = origin_geodesic_disc(params)(complex(lam))
                for coord, value in zip(point, values):
                    assert abs(coord - value[k, j]) <= TOL


def test_origin_record_split_shares_a_scalar_phi():
    phi = BlaschkeMap.constant(-0.2)
    stack = OriginGeodesicParams(column([0.2, 0.2, 0.2]), column([1.0, 1j, -1.0]), 1.0, phi)
    members = stack.split()
    assert [params.omega1 for params in members] == [1.0, 1j, -1.0]
    assert all(params.phi == phi and params.C == 0.2 for params in members)


@pytest.mark.parametrize("kind", ["constant", "scaled", "degree2"])
def test_stacked_transported_extremal_matches_members(kind):
    rng = np.random.default_rng(12)
    C = column(rng.uniform(0.05, 0.9, size=6))
    omega1, omega2 = random_unimodular(rng, (2,) + C.shape)
    params = OriginGeodesicParams(C, omega1, omega2, random_phi_pinned(rng, C, kind))
    stack = transport_disc(params)
    shared = np.append(0.0, random_disc_points(rng, 4, 0.95))
    per_disc = np.hstack([np.zeros_like(C), random_disc_points(rng, C.shape, 0.95)])
    for lams in (shared, per_disc):
        values = stack(lams)
        assert all(coord.shape == (len(C), lams.shape[-1]) for coord in values)
        # a member computes in Python complex arithmetic, the stack in
        # numpy: they agree to rounding
        for k, member in enumerate(params.split()):
            disc = transport_disc(member)
            for j, lam in enumerate(np.broadcast_to(lams, values.z1.shape)[k]):
                for coord, value in zip(disc(complex(lam)), values):
                    assert abs(coord - value[k, j]) <= ROUNDING_TOL


def test_stacked_transported_extremal_validates_each_entry():
    # the record checks every entry; the ends C = 0 and C = 1 and an
    # automorphic phi transport like any other entry
    C = column([0.0, 0.3, 1.0])
    zeta = column([1.0, 1j, -1.0])
    constant = BlaschkeMap.constant(-C)
    transported = transport_disc(OriginGeodesicParams(C, 1.0, zeta, constant))
    assert transported(0.0).z3[2, 0] == 1.0
    C = column([0.2, 0.3, 0.4])
    automorphic = BlaschkeMap(zeta, (C * zeta.conjugate(),), 1.0)
    assert list(transport_disc(OriginGeodesicParams(C, 1.0, zeta, automorphic)).classify()) \
        == [TransportClass.BOUNDARY] * 3
    scaled = BlaschkeMap(zeta, ((C / 0.9) * zeta.conjugate(),), 0.9)
    bad = [
        (column([0.2, 1.2, 0.4]), 1.0, scaled, r"C must lie in \[0, 1\]"),
        (C, column([1.0, 1.1, 1.0]), scaled, "omega1 must be unimodular"),
        (column([0.2, 0.3 + 1e-6, 0.4]), 1.0, scaled, r"phi\(0\)"),
    ]
    for c, omega1, phi, reason in bad:
        with pytest.raises(DomainError, match=reason):
            transport_disc(OriginGeodesicParams(c, omega1, zeta, phi))


def test_stacked_left_inverse_and_fit_match_members():
    stacks = sample_origin_stacks(np.random.default_rng(4), 9)
    lams = fit_grid()
    for stack in stacks:
        f, F = origin_geodesic_disc(stack), certified_left_inverse(stack)
        assert isinstance(F, PsiOmegaMap)
        residuals = left_inverse_residual(f, F)
        for action in TETRABLOCK_ACTIONS:
            fit = fit_quadratic_forms(psi_of_lambda(F, f, (action,), lams)[0])
            for k, params in enumerate(stack.split()):
                g, G = origin_geodesic_disc(params), certified_left_inverse(params)
                assert abs(residuals[k, 0] - left_inverse_residual(g, G)) <= ROUNDING_TOL
                single = fit_quadratic_forms(psi_of_lambda(G, g, (action,), lams))
                assert abs(fit.psi0[k, 0] - single.psi0[0, 0]) <= ROUNDING_TOL
                assert abs(fit.C[k, 0] - single.C[0, 0]) <= ROUNDING_TOL
                assert abs(fit.residual[k, 0] - single.residual[0, 0]) <= ROUNDING_TOL


def flipped_inverse(params, flip):
    """The certified left inverse of ``params`` times ``flip`` (+1 or -1 per
    disc): a flipped disc sends F o f to -lam and breaks the hypothesis."""
    return PsiOmegaMap(params.omega1.conjugate(), factor=flip * params.omega2.conjugate())


def test_stacked_necessary_check_matches_members():
    for stack in sample_origin_stacks(np.random.default_rng(5), 9):
        members = stack.split()
        n = len(members)
        f = origin_geodesic_disc(stack)
        for flip in (np.ones((n, 1)), np.where(np.arange(n) % 2, -1.0, 1.0)[:, None]):
            reports = geodesic_necessary_checks(flipped_inverse(stack, flip), f,
                                                TETRABLOCK_ACTIONS)
            for report in reports:
                assert report.verdict.shape == report.hypothesis_residual.shape == (n, 1)
            for k, params in enumerate(members):
                singles = geodesic_necessary_checks(flipped_inverse(params, flip[k, 0]),
                                                    origin_geodesic_disc(params),
                                                    TETRABLOCK_ACTIONS)
                for report, single in zip(reports, singles):
                    assert report.verdict[k, 0] is single.verdict[0, 0]
                    assert (single.verdict[0, 0] is CheckVerdict.PASS) == (flip[k, 0] == 1.0)
                    assert abs(report.hypothesis_residual[k, 0]
                               - single.hypothesis_residual[0, 0]) <= ROUNDING_TOL
                    assert (single.psi is None) is (single.fit is None)
                    if single.fit is not None:
                        assert abs(report.fit.psi0[k, 0] - single.fit.psi0[0, 0]) <= ROUNDING_TOL
                        assert abs(report.fit.C[k, 0] - single.fit.C[0, 0]) <= ROUNDING_TOL
                        assert abs(report.fit.residual[k, 0]
                                   - single.fit.residual[0, 0]) <= ROUNDING_TOL


def test_stacked_necessary_check_without_a_valid_disc_skips_the_fit():
    stack = sample_origin_stacks(np.random.default_rng(6), 9)[2]
    n = len(stack.split())
    reports = geodesic_necessary_checks(flipped_inverse(stack, -np.ones((n, 1))),
                                        origin_geodesic_disc(stack), TETRABLOCK_ACTIONS)
    assert len(reports) == len(TETRABLOCK_ACTIONS)
    for report in reports:
        assert report.fit is None and report.psi is None
        assert all(v is CheckVerdict.HYPOTHESIS_VIOLATION for v in report.verdict.ravel())


# ---------------------------------------------------------------------------
# the division-free kernels against the dividing formulas they replaced
# ---------------------------------------------------------------------------

# Both sides round each product, sum and quotient once, in a different order
# and number: a few ulps of values of modulus at most 2 (at most 3.5 eps was
# seen on 5 10^5 samples with zeros and points up to modulus 0.999)
ORACLE_TOL = 6 * np.finfo(float).eps


def dividing_disc_coords(C, omega1, omega2, phival, psival):
    """The disc formula with its two divisions by 1 + C per sample."""
    f1 = omega1 * (phival + C) / (1.0 + C)
    f2 = omega2 * psival * (1.0 + C * phival) / (1.0 + C)
    f3 = omega1 * omega2 * phival * psival
    return f1, f2, f3


def factor_by_factor(b, lam):
    """A Blaschke product with one division per factor."""
    if b.is_constant:
        return np.broadcast_to(b.unimodular_factor, np.broadcast_shapes(
            np.shape(b.unimodular_factor), np.shape(lam)))
    out = b.scale * b.unimodular_factor
    for a in b.zeros:
        out = out * (lam - a) / (1.0 - a.conjugate() * lam)
    return out


def oracle_lams(rng, shape):
    """Points of the 0.999 disc, a fifth of them on the circle of radius
    0.999."""
    lams = random_disc_points(rng, shape, 0.999)
    rim = rng.uniform(size=shape) < 0.2
    return np.where(rim, 0.999 * random_unimodular(rng, shape), lams)


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_blaschke_product_matches_factor_by_factor(degree):
    rng = np.random.default_rng(200 + degree)
    raw = raw_maps(rng, degree, n=40)
    raw["zeros"] = random_disc_points(rng, (degree, 40), 0.999)
    stack, single = stacked_and_single(raw, degree)
    lams = oracle_lams(rng, (40, 25))
    assert np.max(np.abs(stack(lams) - factor_by_factor(stack, lams))) <= ORACLE_TOL
    for member, row in zip(single, lams):
        for lam in map(complex, row[:5]):
            value = member(lam)
            assert type(value) is complex
            assert abs(value - factor_by_factor(member, lam)) <= ORACLE_TOL


@pytest.mark.parametrize("seed, degree", [(300, None), (301, 0), (302, 1), (303, 2)])
def test_disc_coords_match_the_dividing_formula(seed, degree):
    """phi the identity (degree None) or a map of the given degree; psi the
    points, 1 or other points."""
    rng = np.random.default_rng(seed)
    C = column(np.concatenate([[0.0, 1.0 - 1e-7], rng.uniform(0.0, 1.0, size=30)]))
    omega1, omega2 = random_unimodular(rng, (2,) + C.shape)
    lams = oracle_lams(rng, (C.shape[0], 25))
    phival = lams if degree is None else stacked_and_single(
        raw_maps(rng, degree, n=C.shape[0]), degree)[0](lams)
    for psival in (lams, 1.0, oracle_lams(rng, lams.shape)):
        want = dividing_disc_coords(C, omega1, omega2, phival, psival)
        got = disc_coords(C, omega1, omega2, phival, psival)
        for g, w in zip(got, want):
            assert np.shape(g) == np.shape(w)
            assert np.max(np.abs(g - w)) <= ORACLE_TOL
        # one disc at a time, in Python complex arithmetic
        for k in (0, 1, 2):
            args = (float(C[k, 0]), complex(omega1[k, 0]), complex(omega2[k, 0]),
                    complex(phival[k, 3]), complex(np.broadcast_to(psival, lams.shape)[k, 3]))
            got = disc_coords(*args)
            assert all(type(g) is complex for g in got)
            for g, w in zip(got, dividing_disc_coords(*args)):
                assert abs(g - w) <= ORACLE_TOL


def test_sample_grid_is_cached_and_read_only():
    radii, n_angles = (0.0, 0.25, 0.5), 12
    grid = sample_grid(radii, n_angles)
    roots = np.exp(2j * math.pi * np.arange(n_angles) / n_angles)
    assert np.array_equal(grid, (np.array(radii)[:, None] * roots).ravel())
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0] = 1.0
    # the same radii as an array or a list give the same array
    assert sample_grid(np.array(radii), n_angles) is grid
    assert sample_grid(list(radii), n_angles) is grid
    default = sample_grid()
    assert default is sample_grid(geodesics.DEFAULT_RADII, geodesics.DEFAULT_N_ANGLES)
    roots = np.exp(2j * math.pi * np.arange(16) / 16)
    assert np.array_equal(default, (np.array(geodesics.DEFAULT_RADII)[:, None] * roots).ravel())
    assert not default.flags.writeable
    assert sample_grid((), 4).size == sample_grid((0.5,), 0).size == 0


# ---------------------------------------------------------------------------
# the disc sampler
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, shape", [(5, (5,)), ((3, 4), (3, 4)), ((2, 1, 3), (2, 1, 3)),
                                      (0, (0,)), ((0, 3), (0, 3)), (np.int64(2), (2,))])
def test_disc_sampler_shapes(n, shape):
    draws = random_disc_points(np.random.default_rng(4), n)
    assert draws.shape == shape and draws.dtype == complex


def test_disc_sampler_rejects_negative_sizes():
    with pytest.raises(ValueError):
        random_disc_points(np.random.default_rng(4), -1)


@pytest.mark.parametrize("radius", [0.5, 0.9, 1.0])
def test_disc_sampler_stays_strictly_inside(radius):
    draws = random_disc_points(np.random.default_rng(5), (200, 100), radius)
    assert np.max(np.abs(draws)) < radius
    if radius == 1.0:
        assert require_disc_point(draws) is not None
        for z in draws[0]:
            require_disc_point(complex(z))
    point = random_disc_point(np.random.default_rng(5), radius)
    assert type(point) is complex and abs(point) < radius


def test_disc_sampler_repeats_per_seed():
    first = random_disc_points(np.random.default_rng(6), (50, 7), 0.8)
    assert np.array_equal(first, random_disc_points(np.random.default_rng(6), (50, 7), 0.8))
    # the scalar sampler is a draw of one from the array sampler
    assert random_disc_point(np.random.default_rng(6), 0.8) == complex(
        random_disc_points(np.random.default_rng(6), 1, 0.8)[0])


class ShortFirstBatch:
    """A generator whose first draw puts every pair in the corner (1, 1)
    of the square, outside the disc; later draws come from a real
    generator."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def uniform(self, low, high, size):
        self.sizes.append(size)
        if len(self.sizes) == 1:
            return np.full(size, np.nextafter(high, low))
        return self.rng.uniform(low, high, size)


def test_disc_sampler_tops_up_a_short_batch():
    stub = ShortFirstBatch(7)
    draws = random_disc_points(stub, (4, 25), 0.9)
    assert len(stub.sizes) == 2 and stub.sizes[1] == stub.sizes[0]
    assert draws.shape == (4, 25) and np.max(np.abs(draws)) < 0.9
    # the kept points are the second batch's points inside the disc, in order
    pairs = np.random.default_rng(7).uniform(-1.0, 1.0, stub.sizes[1])
    candidates = pairs.view(complex).ravel()
    assert np.array_equal(draws.ravel(), 0.9 * candidates[np.abs(candidates) < 1.0][:100])


@pytest.mark.parametrize("n", [0, 1, (3, 57), (2, 5000), (1000, 100)])
def test_disc_sampler_is_the_one_array_draw(n):
    # the chunked draw takes the same uniforms in the same order as one array
    # per batch, so the points and the generator's next draw are the same bits
    for seed in range(50):
        for radius in (0.5, 0.9, 0.95, 1.0):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            draws = random_disc_points(rng, n, radius)
            expected = one_shot_disc_points(ref_rng, n, radius)
            assert draws.shape == expected.shape
            assert draws.tobytes() == expected.tobytes()
            assert rng.uniform() == ref_rng.uniform()


class CornerFirst:
    """A generator whose first ``corner`` pairs lie in the corner (1, 1) of
    the square, outside the disc, however the draws are cut; the pairs after
    them are a real generator's."""

    def __init__(self, seed, corner):
        self.rng = np.random.default_rng(seed)
        self.corner = corner
        self.sizes = []

    def uniform(self, low, high, size):
        self.sizes.append(size)
        pairs = self.rng.uniform(low, high, size)
        n = min(self.corner, size[0])
        pairs[:n] = np.nextafter(high, low)
        self.corner -= n
        return pairs


def test_disc_sampler_tops_up_a_short_batch_of_several_chunks():
    shape = (3, 10_000)
    batch = (4 * math.prod(shape)) // 3 + 16
    block = verify._BLOCK_POINTS
    assert batch > 2 * block
    stub = CornerFirst(9, batch)
    draws = random_disc_points(stub, shape, 0.9)
    # the empty batch, then the top-up, each cut into chunks of at most a block
    chunks = [min(block, batch - start) for start in range(0, batch, block)]
    assert stub.sizes == [(k, 2) for k in chunks + chunks]
    ref = CornerFirst(9, batch)
    assert draws.tobytes() == one_shot_disc_points(ref, shape, 0.9).tobytes()
    assert stub.rng.uniform() == ref.rng.uniform()


def test_disc_sampler_peaks_below_its_output_plus_one_mib():
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        draws = random_disc_points(rng, (1000, 100), 0.95)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= draws.nbytes + 2 ** 20


def test_disc_sampler_is_uniform():
    # with n draws a count of probability p lies within 5 standard
    # deviations, 5 sqrt(n p (1 - p)), of n p; the seed is fixed
    n, radius = 40_000, 0.7
    draws = random_disc_points(np.random.default_rng(8), n, radius)

    def within(count, p):
        return abs(count - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p))

    assert within(np.count_nonzero(np.abs(draws) < radius / math.sqrt(2.0)), 0.5)
    for re_sign in (-1, 1):
        for im_sign in (-1, 1):
            quadrant = (np.sign(draws.real) == re_sign) & (np.sign(draws.imag) == im_sign)
            assert within(np.count_nonzero(quadrant), 0.25)


# ---------------------------------------------------------------------------
# the stacked suites against disc-by-disc references
# ---------------------------------------------------------------------------


def member(draws, k):
    return draws.stack(np.array([k])).split()[0]


#: the first discs of a suite's draw, at their first samples, that a
#: reference also evaluates one by one through the scalar records; the whole
#: draw is held as one stack per key
SCALAR = np.s_[:24, :9]


def boundary_reference(seed):
    """The e-values of the boundary suite's draw: those at ``SCALAR`` one by
    one, and every disc in one stack per degree."""
    rng = np.random.default_rng(seed)
    C = rng.uniform(0.0, 1.0, size=(1000, 1))
    omega1, omega2 = random_unimodular(rng, (2, 1000, 1))
    phi = random_self_maps(rng, 1000)
    lams = random_disc_points(rng, (1000, 100), 0.95)
    discs = [boundary_disc(C[k, 0], omega1[k, 0], omega2[k, 0], member(phi, k))
             for k in range(len(lams[SCALAR]))]
    e = np.array([[tetra_e_value(disc(complex(lam))) for lam in row]
                  for disc, row in zip(discs, lams[SCALAR])])
    stacked = np.empty(lams.shape)
    for idx in key_groups(phi.degree):
        point = boundary_disc(C[idx], omega1[idx], omega2[idx], phi.stack(idx))(lams[idx])
        stacked[idx] = e_value_raw(*point)
    return e, stacked


def inclusion_reference(seed):
    """The e-values of the inclusion suite's draw, as ``boundary_reference``
    gives those of the boundary suite."""
    rng = np.random.default_rng(seed)
    C = rng.uniform(0.0, 0.99, size=(1000, 1))
    omega1, omega2 = random_unimodular(rng, (2, 1000, 1))
    phi, psi = random_self_maps(rng, 1000), random_self_maps(rng, 1000)
    lams = random_disc_points(rng, (1000, 100), 0.9)
    e = np.array([[tetra_e_value(general_disc(
        GeneralDiscParams(C[k, 0], omega1[k, 0], omega2[k, 0], member(phi, k), member(psi, k)))(
        complex(lam))) for lam in row] for k, row in enumerate(lams[SCALAR])])
    stacked = np.empty(lams.shape)
    for idx in key_groups(3 * phi.degree + psi.degree):
        params = GeneralDiscParams(C[idx], omega1[idx], omega2[idx],
                                   phi.stack(idx), psi.stack(idx))
        stacked[idx] = e_value_raw(*general_disc(params)(lams[idx]))
    return e, stacked


def origin_members(stacks):
    """(row, record) of the first three records of each stack and of its
    last one, the row counted over the stacks in order.  The last record of
    the first stack is the C = 1 edge case."""
    start = 0
    for stack in stacks:
        records = stack.split()
        for k in (0, 1, 2, len(records) - 1):
            yield start + k, records[k]
        start += len(records)


def test_scalar_e_value_matches_the_block():
    rng = np.random.default_rng(31)
    coords = random_disc_points(rng, (3, 2000), 1.2)
    block = e_value_raw(*coords)
    scalar = [e_value_raw(*map(complex, point)) for point in coords.T]
    assert all(type(e) is float for e in scalar)
    assert np.max(np.abs(np.array(scalar) - block)) <= E_TOL


@pytest.mark.parametrize("seed", [0, 7])
def test_boundary_suite_matches_disc_by_disc(seed):
    e, stacked = boundary_reference(seed)
    assert np.max(np.abs(stacked[SCALAR] - e)) <= E_TOL
    result = suite_boundary(seed=seed)
    assert result.details["worst_deviation"] == np.max(np.abs(stacked - 1.0))
    assert result.passed and np.max(np.abs(e - 1.0)) < 1e-12


@pytest.mark.parametrize("seed", [0, 7])
def test_inclusion_suite_matches_disc_by_disc(seed):
    e, stacked = inclusion_reference(seed)
    assert np.max(np.abs(stacked[SCALAR] - e)) <= E_TOL
    result = suite_inclusion(seed=seed)
    assert result.details["worst_e_value"] == np.max(stacked)
    assert result.details["violations"] == np.count_nonzero(stacked >= 1.0) == 0
    assert result.passed and np.max(e) < 1.0


@pytest.mark.parametrize("seed", [0, 7])
def test_certificate_suite_matches_disc_by_disc(seed):
    lams = sample_grid()
    stacks = sample_origin_stacks(np.random.default_rng(seed), 200)
    stacked = np.concatenate([certified_left_inverse(stack)(origin_geodesic_disc(stack)(lams))
                              for stack in stacks])
    for row, params in origin_members(stacks):
        f, F = origin_geodesic_disc(params), certified_left_inverse(params)
        for j, lam in enumerate(map(complex, lams)):
            assert abs(stacked[row, j] - complex(F(f(lam)))) <= ROUNDING_TOL
    result = suite_certificate(seed=seed)
    assert result.details["worst_left_inverse_residual"] == np.max(np.abs(stacked - lams))
    assert (result.details["worst_schwarz_equality"]
            == np.max(np.abs(mobius_m(0.0, stacked) - np.abs(lams))))
    assert result.passed


@pytest.mark.parametrize("seed", [0, 7])
def test_necessary_suite_matches_disc_by_disc(seed):
    rng = np.random.default_rng(seed)
    stacks = sample_origin_stacks(rng, 200)
    checks = [list(geodesic_necessary_checks(certified_left_inverse(stack),
                                             origin_geodesic_disc(stack), TETRABLOCK_ACTIONS))
              for stack in stacks]
    # one row per record, one column per action
    verdict, residual, psi0 = (
        np.concatenate([np.hstack([get(report) for report in reports]) for reports in checks])
        for get in (lambda r: r.verdict, lambda r: r.fit.residual, lambda r: r.fit.psi0))
    for row, params in origin_members(stacks):
        f, F = origin_geodesic_disc(params), certified_left_inverse(params)
        for col, report in enumerate(geodesic_necessary_checks(F, f, TETRABLOCK_ACTIONS)):
            assert report.verdict[0, 0] == verdict[row, col]
            assert abs(report.fit.residual[0, 0] - residual[row, col]) <= ROUNDING_TOL
            assert abs(report.fit.psi0[0, 0] - psi0[row, col]) <= ROUNDING_TOL
    failures = np.count_nonzero(verdict != CheckVerdict.PASS)
    worst_fit, worst_psi0 = np.max(residual), np.max(np.abs(psi0))
    worst_a = worst_im_c = worst_c = 0.0
    lams = fit_grid()
    c_grid = 1.0 + 0.05 * np.arange(21)
    for C, omega in zip(c_grid, random_unimodular(rng, (21, 1))[:, 0]):
        params = G2GeodesicParams(C, omega)
        f, F = g2_geodesic_disc(params), G2FMap(params.omega)
        report, = geodesic_necessary_checks(F, f, (G2_ACTION,))
        failures += report.verdict[0, 0].value != "pass"
        worst_fit = max(worst_fit, report.fit.residual[0, 0])
        worst_c = max(worst_c, abs(report.fit.C[0, 0] - C))
        c0, c1, _, _ = fit_general_quadratics(
            [-1j * psi_of_lambda(F, f, (G2_ACTION,), lams)[0]])
        worst_a = max(worst_a, abs(report.fit.circular_a[0, 0]), abs(c0[0, 0]))
        worst_im_c = max(worst_im_c, abs(c1[0, 0].imag))
    details = suite_necessary(seed=seed).details
    assert details["failures"] == failures == 0
    for key, value in (("worst_fit_residual", worst_fit), ("worst_origin_psi0", worst_psi0),
                       ("worst_constant_coeff", worst_a),
                       ("worst_imag_linear_coeff", worst_im_c),
                       ("worst_c_mismatch", worst_c)):
        assert abs(details[key] - value) <= ROUNDING_TOL, key


@pytest.mark.parametrize("seed", [0, 7])
def test_transport_suite_matches_disc_by_disc(seed):
    rng = np.random.default_rng(seed)
    automorphic = np.arange(200)[:, None] < 100
    C = rng.uniform(0.0, np.where(automorphic, 0.9, 0.85))
    scale = np.where(automorphic, 1.0, 0.9)
    zeta = random_unimodular(rng, C.shape)
    omega1, omega2 = random_unimodular(rng, (2,) + C.shape)
    stack = OriginGeodesicParams(C, omega1, omega2,
                                 BlaschkeMap(zeta, ((C / scale) * zeta.conjugate(),), scale))
    stacked = list(transport_disc(stack).classify())
    # the first discs of each half one by one
    for k in [*range(8), *range(100, 108)]:
        phi = BlaschkeMap(zeta[k, 0], ((C[k, 0] / scale[k, 0]) * zeta[k, 0].conjugate(),),
                          scale[k, 0])
        params = OriginGeodesicParams(C[k, 0], omega1[k, 0], omega2[k, 0], phi)
        assert transport_disc(params).classify() == stacked[k]
    details = suite_transport(seed=seed).details
    assert details["boundary"] == stacked.count(TransportClass.BOUNDARY) == 100
    assert details["interior"] == stacked.count(TransportClass.INTERIOR) == 100
    assert details["mixed"] == details["misclassified"] == 0


@pytest.mark.parametrize("seed", [0, 7])
def test_g2_window_suite_matches_disc_by_disc(seed):
    lams = sample_grid()
    worst_res = worst_root = 0.0
    failures = 0
    for k in range(21):
        for j in range(8):
            params = G2GeodesicParams(1.0 + 0.05 * k, cmath.exp(2j * cmath.pi * j / 8.0))
            point = g2_geodesic_disc(params)(lams)
            roots = np.abs(g2_roots(point)[0])
            worst_root = max(worst_root, np.max(roots))
            failures += np.count_nonzero(~(roots < 1.0 - DEFAULT_BOUNDARY_TOL))
            worst_res = max(worst_res, np.max(np.abs(G2FMap(params.omega)(point) - lams)))
    details = suite_g2_window(seed=seed).details
    assert details["grid_points"] == 21 * 8
    assert details["in_window_failures"] == failures == 0
    assert abs(details["worst_root_modulus"] - worst_root) <= TOL
    assert abs(details["worst_left_inverse_residual"] - worst_res) <= ROUNDING_TOL


def test_transport_of_a_stack_keeps_columns():
    stack = sample_origin_stacks(np.random.default_rng(9), 9)[1]
    transported = transport_disc(stack)
    n = len(stack.split())
    assert all(np.shape(c) == (n, 1) for c in transported(0.0))
    assert transported(fit_grid()).z1.shape == (n, fit_grid().size)
    single = transport_disc(stack.split()[0])
    assert isinstance(single.classify(), TransportClass)
    assert all(type(c) is complex for c in single(0.0))


# ---------------------------------------------------------------------------
# the lempert suite: searches pair by pair, extremals as one stack
# ---------------------------------------------------------------------------


def lempert_reference(search=disc_search_upper_bound):
    """The lempert suite's figures with one transported extremal per pair,
    evaluated at the scalars 0 and z/(1 - |w|)."""
    worst_high, worst_low, worst_extremal = -math.inf, math.inf, 0.0
    pairs = not_found = 0
    for z, w in lempert_grid(10):
        pairs += 1
        closed = abs(z) / (1.0 - abs(w))
        result = search(TetraPoint(0, 0, w), TetraPoint(0, z, w))
        if not result.found:
            not_found += 1
            continue
        gap = result.bound.m_scale - closed
        worst_high, worst_low = max(worst_high, gap), min(worst_low, gap)
        C = abs(w)
        disc = transport_disc(OriginGeodesicParams(C, -w / C, 1.0, BlaschkeMap.constant(-C)))
        lam2 = z / (1.0 - C)
        p0, p2 = disc(0.0), disc(lam2)
        worst_extremal = max(worst_extremal, abs(p0.z1), abs(p0.z2), abs(p0.z3 - w),
                             abs(p2.z1), abs(p2.z2 - z), abs(p2.z3 - w),
                             abs(mobius_m(0.0, lam2) - closed))
    return {"pairs": pairs, "search_failures": not_found,
            "worst_above_closed_form": worst_high, "worst_below_closed_form": worst_low,
            "worst_extremal_deviation": worst_extremal}


def assert_lempert_matches(details, reference):
    assert set(details) == set(reference)
    for key in ("pairs", "search_failures", "worst_above_closed_form",
                "worst_below_closed_form"):
        assert details[key] == reference[key], key
    assert abs(details["worst_extremal_deviation"]
               - reference["worst_extremal_deviation"]) <= 1e-15


def test_lempert_suite_matches_pair_by_pair():
    result = suite_lempert()
    assert_lempert_matches(result.details, lempert_reference())
    assert result.details["pairs"] == len(list(lempert_grid(10))) == 100
    assert result.passed and result.details["worst_extremal_deviation"] < 1e-15


def test_lempert_suite_holds_the_search_to_rounding(monkeypatch):
    # the axis route is a closed form: a k_upper 1e-12 off fails the suite
    def search(w, z):
        result = disc_search_upper_bound(w, z)
        return dataclasses.replace(
            result, bound=HyperbolicDistance.from_m(result.bound.m_scale + 1e-12))

    monkeypatch.setattr(verify, "disc_search_upper_bound", search)
    result = suite_lempert()
    assert_lempert_matches(result.details, lempert_reference(search))
    assert result.details["search_failures"] == 0 and not result.passed


def test_lempert_suite_stacks_only_the_found_pairs(monkeypatch):
    grid = list(lempert_grid(10))
    missed = {grid[1], grid[4]}

    def search(w, z):
        result = disc_search_upper_bound(w, z)
        if (z.z2, z.z3) in missed:
            return dataclasses.replace(result, found=False, bound=None)
        return result

    stacked = []

    def extremal(params):
        stacked.append(params.C)
        return transport_disc(params)

    monkeypatch.setattr(verify, "disc_search_upper_bound", search)
    monkeypatch.setattr(verify, "transport_disc", extremal)
    result = suite_lempert()
    assert_lempert_matches(result.details, lempert_reference(search))
    assert result.details["search_failures"] == 2 and not result.passed
    C, = stacked
    assert C.shape == (len(grid) - 2, 1)
    assert list(C[:, 0]) == list(np.abs([w for z, w in grid if (z, w) not in missed]))


def test_lempert_suite_without_found_pairs_builds_no_extremal(monkeypatch):
    def search(w, z):
        return dataclasses.replace(disc_search_upper_bound(w, z), found=False, bound=None)

    def extremal(params):
        raise AssertionError("no pair was found")

    monkeypatch.setattr(verify, "disc_search_upper_bound", search)
    monkeypatch.setattr(verify, "transport_disc", extremal)
    details = suite_lempert().details
    assert details["search_failures"] == details["pairs"] == 100
    assert details["worst_extremal_deviation"] == 0.0


# ---------------------------------------------------------------------------
# disc transport: the value at 0 is filled in only where a sample vanishes
# ---------------------------------------------------------------------------


def divided_reference(lam, value, at_zero):
    """(z1/lam, z2, z3/lam) with ``at_zero`` selected at every sample."""
    small = np.abs(lam) < 1e-12
    safe = np.where(small, 1.0, lam)
    return TetraPoint(np.where(small, at_zero.z1, value.z1 / safe),
                      np.where(small, at_zero.z2, value.z2),
                      np.where(small, at_zero.z3, value.z3 / safe))


def bits(point):
    return [(type(c), np.shape(c), np.asarray(c).tobytes()) for c in point]


def transport_lams(kind, rows, with_zero):
    """A scalar lam, a grid or an (rows, 5) stack of lams, with a 0 among
    them or not."""
    rng = np.random.default_rng(17)
    if kind == "scalar":
        return 0.0 if with_zero else 0.3 - 0.2j
    lams = sample_grid() if kind == "grid" else random_disc_points(rng, (rows, 5), 0.9)
    if with_zero:
        lams = lams.copy()
        lams.flat[lams.size // 2] = 0.0
    return lams


def transport_stack(stacked):
    """C, omega1, omega2 and a non-automorphic phi with phi(0) = -C, as
    (4, 1) fields or as the scalars of the first entry."""
    rng = np.random.default_rng(23)
    C = column(rng.uniform(0.05, 0.9, size=4))
    omega1, omega2 = random_unimodular(rng, (2,) + C.shape)
    phi = random_phi_pinned(rng, C, "scaled")
    if stacked:
        return C, omega1, omega2, phi
    return float(C[0, 0]), complex(omega1[0, 0]), complex(omega2[0, 0]), phi.split()[0]


@pytest.mark.parametrize("with_zero", [False, True], ids=["no-zero", "zero"])
@pytest.mark.parametrize("kind", ["scalar", "grid", "stack"])
@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
def test_transport_fills_zero_bit_for_bit(stacked, kind, with_zero):
    C, omega1, omega2, phi = transport_stack(stacked)
    lams = transport_lams(kind, 4, with_zero)
    transported = transport_disc(OriginGeodesicParams(C, omega1, omega2, phi))
    # the record normalizes its unimodular parameters
    omega1, omega2 = require_unimodular(omega1), require_unimodular(omega2)
    at_zero = TetraPoint(omega1 * phi.derivative(0.0) / (1.0 + C), 0.0, -omega1 * omega2 * C)
    value = TetraPoint(*disc_coords(C, omega1, omega2, phi(lams), lams))
    assert bits(transported(lams)) == bits(divided_reference(lams, value, at_zero))


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
def test_transport_at_zero_is_the_closed_form(stacked):
    C, omega1, omega2, phi = transport_stack(stacked)
    transported = transport_disc(OriginGeodesicParams(C, omega1, omega2, phi))
    omega1, omega2 = require_unimodular(omega1), require_unimodular(omega2)
    at_zero = TetraPoint(omega1 * phi.derivative(0.0) / (1.0 + C), 0.0, -omega1 * omega2 * C)
    for got, want in zip(transported(0.0), at_zero):
        assert np.asarray(got).tobytes() == np.broadcast_to(want, np.shape(got)).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_transport_suite_unchanged_by_the_conditional_fill(seed, monkeypatch):
    details = suite_transport(seed=seed).details
    monkeypatch.setattr(geodesics, "_divided_by_lam", divided_reference)
    assert suite_transport(seed=seed).details == details
    assert details == {"discs": 200, "misclassified": 0, "boundary": 100,
                       "interior": 100, "mixed": 0}


# ---------------------------------------------------------------------------
# the stacked suites over many seeds
# ---------------------------------------------------------------------------

SUITE_KEYS = {
    suite_boundary: ({"discs": 1000, "samples_per_disc": 100},
                     {"worst_deviation", "tolerance"}),
    suite_inclusion: ({"discs": 1000, "samples_per_disc": 100},
                      {"violations", "worst_e_value", "margin"}),
    suite_certificate: ({"params": 200},
                        {"worst_left_inverse_residual", "worst_schwarz_equality",
                         "tolerances"}),
    suite_necessary: ({"origin_params": 200, "g2_grid": 21},
                      {"failures", "worst_fit_residual", "worst_origin_psi0",
                       "worst_constant_coeff", "worst_imag_linear_coeff",
                       "worst_c_mismatch"}),
    suite_transport: ({"discs": 200}, {"misclassified", "boundary", "interior", "mixed"}),
    suite_g2_window: ({"grid_points": 168},
                      {"in_window_failures", "worst_left_inverse_residual",
                       "worst_root_modulus", "witnesses_found"}),
}


@pytest.mark.parametrize("suite", list(SUITE_KEYS), ids=lambda fn: fn.__name__)
def test_stacked_suites_pass_over_seeds(suite):
    counts, other_keys = SUITE_KEYS[suite]
    for seed in range(20):
        result = suite(seed=seed)
        assert result.passed, (seed, result.details)
        assert set(result.details) == set(counts) | other_keys
        assert {key: result.details[key] for key in counts} == counts


@pytest.mark.parametrize("seed", [0, 7])
def test_blocks_do_not_change_results(seed, monkeypatch):
    """Every figure is a maximum or a count over rows, so one disc per block
    and one block per stack give the figures of the default blocks."""
    suites = (suite_boundary, suite_inclusion, suite_transport, suite_g2_window)
    default = [suite(seed=seed).details for suite in suites]
    for block_points in (1, 10 ** 9):
        monkeypatch.setattr(verify, "_BLOCK_POINTS", block_points)
        assert [suite(seed=seed).details for suite in suites] == default


@pytest.mark.parametrize("name", list(ALL_SUITES))
def test_a_suite_takes_no_size(name):
    # each suite runs at the one size in its body, which its work counts
    # report, so no caller can run it on fewer samples, or on none
    assert set(inspect.signature(ALL_SUITES[name]).parameters) <= {"seed"}


def test_run_suites_passes_the_seed_to_each_suite_that_takes_one(monkeypatch):
    # the signature decides, so a suite that gains ``seed`` needs no entry
    # in a list beside it to run at the run's seed
    seen = []

    def stub(seed: int = 0):
        seen.append(seed)
        return verify.SuiteResult("stub", True, {})

    monkeypatch.setitem(ALL_SUITES, "stub", stub)
    assert verify.run_suites(["stub"], seed=11)[0].passed and seen == [11]


def test_unimodular_sampler_shapes():
    rng = np.random.default_rng(1)
    assert type(random_unimodular(rng)) is complex
    draws = random_unimodular(rng, (2, 3, 1))
    assert draws.shape == (2, 3, 1)
    assert np.allclose(np.abs(draws), 1.0)
    assert cmath.isclose(abs(random_unimodular(rng)), 1.0)


@pytest.mark.parametrize("kind", ["automorphism", "scaled", "degree2"])
def test_pinned_phi_needs_c_below_one(kind):
    rng = np.random.default_rng(8)
    assert random_phi_pinned(rng, 1.0, "constant")(0.3) == -1.0
    C = column([0.0, 0.5, 1.0 - 1e-7])
    stack = random_phi_pinned(rng, C, kind)
    assert np.max(np.abs(stack(0.0) + C)) <= 1e-12
    for member, c in zip(stack.split(), C[:, 0]):
        assert abs(member(0.0) + c) <= 1e-12
        phi = random_phi_pinned(rng, float(c), kind)
        assert abs(phi(0.0) + c) <= 1e-12
        assert (phi.scale < 1.0) == (kind != "automorphism")
    # only the constant -1 has value -1 at the origin
    for bad in (1.0, column([0.5, 1.0])):
        with pytest.raises(DomainError):
            random_phi_pinned(rng, bad, kind)
