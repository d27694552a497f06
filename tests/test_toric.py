"""Toric layer: fans, MPCP, Hodge numbers, divisors, the projective
bundle / contraction pipeline for compactified line bundles."""
import json
import re
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    HEX_NABLA,
    NON_UNIMODULAR_4D,
    P2_DELTA,
    P3_DELTA,
    P4_DELTA,
    complete_by_hrep,
    cone_contains,
    elementary_product,
    face_fan,
    gl_canonical_form,
    leibniz,
    smooth_surface_fan,
)
from nefmirror import cli, toric
from nefmirror.catalog import find_entry, load_catalog
from nefmirror.errors import DomainError, InputError, SmoothnessError
from nefmirror.intlin import det, dot
from nefmirror.lattice import (
    convex_hull,
    is_reflexive,
    lattice_points,
    make_cone,
    polar_dual,
)
from nefmirror.toric import (
    ToricDivisor,
    _cone_extends_to_basis,
    anticanonical,
    bundle_nef_divisor,
    cartier_data,
    divisor_from_polytope,
    hodge_numbers_smooth_toric,
    is_ample,
    is_calabi_yau_cover,
    is_complete,
    is_fano,
    is_nef_polytope,
    is_smooth,
    linear_equivalence_witness,
    linearly_equivalent,
    make_fan,
    mpcp_fan,
    mpcp_h_vector,
    nef_polytope,
    normal_fan,
    projective_bundle_fan,
    semiample_contraction,
)

P2_FAN = normal_fan(convex_hull(P2_DELTA))
P1_FAN = normal_fan(convex_hull([(-1,), (1,)]))
HEX_FAN = normal_fan(convex_hull(HEX_NABLA))
# the del Pezzo ray directions nu_1..nu_6 of the hexagon's normal fan
NU_RAYS = {(-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0), (0, 1)}


# ---------------------------------------------------------------------------
# normal fans
# ---------------------------------------------------------------------------

def test_normal_fan_p2():
    assert set(P2_FAN.rays) == {(1, 0), (0, 1), (-1, -1)}
    assert len(P2_FAN.max_cones) == 3


def test_normal_fan_hexagon_rays():
    assert set(HEX_FAN.rays) == NU_RAYS
    assert len(HEX_FAN.max_cones) == 6


def test_normal_fan_square():
    square = convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    fan = normal_fan(square)
    assert set(fan.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(fan.max_cones) == 4  # P^1 x P^1


def test_normal_fan_equals_face_fan_of_dual():
    for verts in (P2_DELTA, HEX_NABLA, P3_DELTA):
        poly = convex_hull(verts)
        assert normal_fan(poly) == face_fan(polar_dual(poly))


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def test_p2_fan_predicates():
    assert is_smooth(P2_FAN) and is_complete(P2_FAN)


def test_hexagon_fan_smooth_complete():
    assert is_smooth(HEX_FAN) and is_complete(HEX_FAN)


def test_determinant_two_cone_not_smooth():
    fan = make_fan([(1, 0), (0, 1), (-1, -2)],
                   [(0, 1), (1, 2), (0, 2)])
    assert is_complete(fan)
    assert not is_smooth(fan)


def _primitive(v):
    g = 0
    for x in v:
        g = gcd(g, x)
    return tuple(x // g for x in v)


@st.composite
def small_cones(draw):
    d = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(any)
    rays = draw(st.lists(vec.map(_primitive), min_size=1, max_size=d, unique=True))
    return rays


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_cones())
def test_is_smooth_is_gcd_of_maximal_minors(rays):
    """A cone is smooth iff its rays extend to a Z-basis: the gcd of the
    k x k minors of the k x d ray matrix is 1."""
    d = len(rays[0])
    g = 0
    for cols in combinations(range(d), len(rays)):
        g = gcd(g, int(leibniz([[r[c] for c in cols] for r in rays])))
    fan = make_fan(rays, [tuple(range(len(rays)))])
    assert is_smooth(fan) == (g == 1)


@st.composite
def full_cones(draw):
    """The n rays of a cone in Z^n, with determinant +-1, +-2 or 0: the rows
    of a GL(n, Z) matrix, with the last row replaced by 2 r_n + r_1, or by
    r_1 + r_(n-1) (-r_1 when n = 2); each is primitive, as its coordinates
    in that basis are."""
    n = draw(st.integers(2, 4))
    ops = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                  st.integers(-2, 2), st.booleans()),
                        max_size=8))
    rows = elementary_product(n, ops)
    size = draw(st.sampled_from([1, 2, 0]))
    if size == 2:
        rows[-1] = tuple(2 * a + b for a, b in zip(rows[-1], rows[0]))
    elif size == 0:
        rows[-1] = (tuple(a + b for a, b in zip(rows[0], rows[-2])) if n > 2
                    else tuple(-a for a in rows[0]))
    return rows, size


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(full_cones())
def test_smoothness_routes_agree_on_full_cones(cone):
    """is_smooth reads a cone of n rays from |det| = 1; the lattice of the
    span gives the same answer."""
    rays, size = cone
    assert abs(det(rays)) == size
    fan = make_fan(rays, [tuple(range(len(rays)))])
    assert is_smooth(fan) == _cone_extends_to_basis(rays) == (size == 1)


@pytest.mark.parametrize("entry", load_catalog()["entries"],
                         ids=lambda entry: entry.name)
def test_smoothness_routes_agree_on_catalog_fans(entry):
    np_ = entry.build()
    for side in (np_, np_.dual):
        fan = side.mpcp[0]
        by_span = [_cone_extends_to_basis(fan.cone_rays(c)) for c in fan.max_cones]
        by_det = [abs(det(fan.cone_rays(c))) == 1 for c in fan.max_cones]
        assert by_span == by_det
        assert is_smooth(fan) == all(by_det)


def test_incomplete_fan():
    fan = make_fan([(1, 0), (0, 1)], [(0, 1)])
    assert not is_complete(fan)


def test_fan_validate_catalog():
    for fan in (P2_FAN, HEX_FAN):
        assert is_complete(fan)


# Cone i joins ray i to ray i+1: a smooth 2-D "fan" winding twice round
# the origin.  Every ray lies in two cones, on opposite sides.
WOUND_RAYS = [(1, 0), (-2, 1), (-1, 0), (-2, -1), (-1, -1),
              (-1, -2), (1, 1), (0, 1), (-1, 1), (0, -1)]
WOUND_FAN = make_fan(WOUND_RAYS, [(i, (i + 1) % 10) for i in range(10)])


@pytest.mark.parametrize("fan", [
    WOUND_FAN,
    # the half-planes y >= 0 and y <= 0, and the whole plane as one
    # cone: not strongly convex
    make_fan([(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 1, 2), (0, 1, 3)]),
    make_fan([(1, 0), (0, 1), (-1, -1)], [(0, 1, 2)]),
    # a chain of cones that folds back at (-1,-2): the generic point lies
    # in one cone, the directions between (-2,-1) and (-1,-2) in three
    make_fan([(1, 0), (-1, 2), (-1, -2), (-2, -1), (2, -1)],
             [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    # the fourth quadrant twice, whole and split: rays in three cones
    make_fan([(1, 0), (0, 1), (-1, 0), (0, -1), (1, -1)],
             [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (3, 0)]),
    make_fan([(1,)], [(0,)]),
], ids=["wound", "half-planes", "whole-plane", "folded", "overlap", "lone-ray"])
def test_not_complete_counterexamples(fan):
    assert not is_complete(fan)


def test_cones_of_too_few_rays_build_no_hull(monkeypatch):
    # an empty maximal cone made cone_hrep([]) raise IndexError
    def no_hull(gens):
        raise AssertionError("a cone of fewer than n rays built a hull")

    monkeypatch.setattr(toric, "cone_hrep", no_hull)
    rays = [(1, 0), (0, 1), (-1, -1)]
    for fan in (make_fan(rays[:2], [()]), make_fan(rays, [()]),
                make_fan(rays, [(0, 1), (1, 2), (0,)])):
        assert not is_complete(fan)


def test_completeness_routes_agree_on_a_mixed_fan():
    # the normal fan of a square pyramid: the apex gives a cone of 4 rays,
    # each base vertex one of 3, so both routes of is_complete run
    fan = normal_fan(convex_hull(
        [(1, 1, -1), (1, -1, -1), (-1, 1, -1), (-1, -1, -1), (0, 0, 1)]))
    assert sorted(map(len, fan.max_cones)) == [3, 3, 3, 3, 4]
    assert is_complete(fan) and complete_by_hrep(fan)
    for i in range(len(fan.max_cones)):
        dropped = make_fan(fan.rays, fan.max_cones[:i] + fan.max_cones[i + 1:])
        assert not is_complete(dropped) and not complete_by_hrep(dropped)


def test_hodge_rejects_wound_fan():
    fan = WOUND_FAN
    assert is_smooth(fan)
    with pytest.raises(InputError):
        hodge_numbers_smooth_toric(fan)


def _complete_and_each_cone_needed(fan):
    assert is_complete(fan)
    for i in range(len(fan.max_cones)):
        assert not is_complete(
            make_fan(fan.rays, fan.max_cones[:i] + fan.max_cones[i + 1:]))


@pytest.mark.parametrize("entry", load_catalog()["entries"],
                         ids=lambda entry: entry.name)
def test_catalog_mpcp_fans_complete(entry):
    np_ = entry.build()
    for side in (np_, np_.dual):
        _complete_and_each_cone_needed(side.mpcp[0])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=3, max_size=8))
def test_smooth_surface_fans_complete(points):
    poly = convex_hull(points)
    assume(poly.dim == 2)
    _complete_and_each_cone_needed(smooth_surface_fan(poly))


@st.composite
def changed_surface_fans(draw):
    """A smooth complete surface fan, as it is, with one cone dropped,
    with one cone replaced by the cone over two of its rays, or with that
    cone added."""
    points = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                           min_size=3, max_size=8))
    poly = convex_hull(points)
    assume(poly.dim == 2)
    fan = smooth_surface_fan(poly)
    cones = list(fan.max_cones)
    change = draw(st.sampled_from(["none", "drop", "replace", "add"]))
    if change != "none":
        i = draw(st.integers(0, len(cones) - 1))
        pair = draw(st.lists(st.integers(0, len(fan.rays) - 1), min_size=2,
                             max_size=2, unique=True))
        cones[i:i + 1] = {"drop": [], "replace": [pair],
                          "add": [cones[i], pair]}[change]
    return make_fan(fan.rays, cones)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(changed_surface_fans())
def test_completeness_routes_agree_on_surface_fans(fan):
    assert is_complete(fan) == complete_by_hrep(fan)


@pytest.mark.parametrize("entry", load_catalog()["entries"],
                         ids=lambda entry: entry.name)
def test_completeness_routes_agree_after_a_reflection(entry):
    # a GL(n, Z) change of determinant -1 reverses every cone's
    # orientation, and make_fan's ray sort reorders the rays of each cone
    np_ = entry.build()
    m = elementary_product(np_.dim, [(1, 0, 2, False), (0, 1, -1, True)])
    assert det(m) == -1
    for side in (np_, np_.dual):
        fan = side.mpcp[0]
        rays = [tuple(dot(r, col) for col in zip(*m)) for r in fan.rays]
        flipped = make_fan(rays, fan.max_cones)
        dropped = make_fan(rays, fan.max_cones[1:])
        assert is_complete(flipped) and complete_by_hrep(flipped)
        assert not is_complete(dropped) and not complete_by_hrep(dropped)


def test_flat_cones_do_not_complete_a_fan():
    # the P^3 fan plus the four triples of four rays in the plane
    # x + y + z = 0: the flat cones pair up along their ridges with
    # determinant 0 on both sides, and hold no generic point
    p3 = normal_fan(convex_hull(P3_DELTA))
    flat = [(1, -1, 0), (0, 1, -1), (-1, 0, 1), (1, 1, -2)]
    rays = list(p3.rays) + flat
    cones = list(p3.max_cones) + list(combinations(range(4, 8), 3))
    fan = make_fan(rays, cones)
    assert not is_complete(fan) and not complete_by_hrep(fan)


# ---------------------------------------------------------------------------
# MPCP
# ---------------------------------------------------------------------------

def _check_h_vector(polar, fan, h_vector, expected):
    """The h-vector of the MPCP fan over a polar against facts it must
    obey: Dehn-Sommerville h_p = h_{n-p}, h_1 = #rays - n, and sum h_p =
    #maximal cones = nvol of the polar, then against its known value."""
    n = fan.ambient_dim
    assert len(h_vector) == n + 1
    assert all(h_vector[p] == h_vector[n - p] for p in range(n + 1))
    assert h_vector[1] == len(fan.rays) - n
    assert sum(h_vector) == len(fan.max_cones) == polar.nvolume
    assert h_vector == expected


def test_mpcp_hexagon():
    polar = polar_dual(convex_hull(HEX_NABLA))
    fan, h_vector = mpcp_fan(polar)
    _check_h_vector(polar, fan, h_vector, (1, 4, 1))
    assert is_smooth(fan) and is_complete(fan)
    assert set(fan.rays) == NU_RAYS
    assert len(fan.max_cones) == 6  # P^2 blown up at three points


def test_mpcp_p2_delta_is_plane_fan():
    polar = polar_dual(convex_hull(P2_DELTA))
    fan, h_vector = mpcp_fan(polar)
    _check_h_vector(polar, fan, h_vector, (1, 1, 1))
    assert fan == P2_FAN


def test_mpcp_p3_simplex_smooth():
    polar = polar_dual(convex_hull(P3_DELTA))
    fan, h_vector = mpcp_fan(polar)
    _check_h_vector(polar, fan, h_vector, (1, 1, 1, 1))
    assert is_smooth(fan)
    assert len(fan.max_cones) == 4


def test_mpcp_refines_face_fan_with_all_dual_points():
    # the MPCP fan of the ray simplex, whose polar is P2_DELTA's polytope
    polar = convex_hull(P2_DELTA)
    fan, h_vector = mpcp_fan(polar)
    _check_h_vector(polar, fan, h_vector, (1, 7, 1))
    boundary = [p for p in lattice_points(polar) if p != (0, 0)]
    assert set(fan.rays) == set(boundary)
    assert len(fan.max_cones) == polar.nvolume
    assert is_complete(fan)


def test_mpcp_rejects_non_reflexive():
    with pytest.raises(DomainError):
        mpcp_fan(convex_hull([(0, 0), (1, 0), (0, 1)]))


def test_mpcp_h_vector_rejects_what_its_count_does_not_fix():
    # a non-reflexive polytope, and dimension 4, where h_2 is not fixed by
    # the count
    with pytest.raises(DomainError, match="reflexive"):
        mpcp_h_vector(convex_hull([(0, 0), (1, 0), (0, 1)]))
    with pytest.raises(DomainError, match="dimension at most 3"):
        mpcp_h_vector(convex_hull(P4_DELTA))


def test_mpcp_rejects_non_unimodular_4d():
    poly = convex_hull(NON_UNIMODULAR_4D)
    assert is_reflexive(poly)
    with pytest.raises(SmoothnessError, match="^the MPCP fan of the pulling "
                       "triangulation is not unimodular; no smooth MPCP fan "
                       "was found$"):
        mpcp_fan(polar_dual(poly))


# ---------------------------------------------------------------------------
# Hodge numbers
# ---------------------------------------------------------------------------

def test_hodge_p2():
    assert hodge_numbers_smooth_toric(P2_FAN) == ((1, 1, 1), 3)


def test_hodge_del_pezzo_six():
    assert hodge_numbers_smooth_toric(HEX_FAN) == ((1, 4, 1), 6)


def test_hodge_p3():
    fan = normal_fan(convex_hull(P3_DELTA))
    assert hodge_numbers_smooth_toric(fan) == ((1, 1, 1, 1), 4)


def test_hodge_rejects_non_smooth():
    fan = make_fan([(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(SmoothnessError):
        hodge_numbers_smooth_toric(fan)


def test_hodge_palindromic_random():
    for fan in (P2_FAN, HEX_FAN, normal_fan(convex_hull(P3_DELTA))):
        h, chi = hodge_numbers_smooth_toric(fan)
        assert h == tuple(reversed(h))
        assert sum(h) == chi == len(fan.max_cones)


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------

def test_divisor_polytope_anticanonical(p2_delta):
    assert nef_polytope(anticanonical(P2_FAN)) == p2_delta


def test_divisor_polytope_single_ray():
    # D for the ray (-1,-1): the unit triangle (the degree-one column
    # group of the 4x9 golden GKZ matrix)
    ray_idx = P2_FAN.rays.index((-1, -1))
    coeffs = tuple(1 if i == ray_idx else 0 for i in range(3))
    poly = nef_polytope(ToricDivisor(P2_FAN, coeffs))
    assert poly.vertices == ((0, 0), (0, 1), (1, 0))


def test_divisor_polytope_zero():
    poly = nef_polytope(ToricDivisor(P2_FAN, (0, 0, 0)))
    assert poly.vertices == ((0, 0),)
    assert poly.dim == 0


def test_nef_polytope_rejects_twice_a_minus_one_curve():
    # twice a (-1)-curve on the del Pezzo surface is Cartier but not nef
    ray = HEX_FAN.rays.index((1, 0))
    coeffs = tuple(2 if i == ray else 0 for i in range(6))
    with pytest.raises(DomainError, match="not nef"):
        nef_polytope(ToricDivisor(HEX_FAN, coeffs))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=3, max_size=8))
def test_nef_polytope_is_exact_on_smooth_surface_fans(points):
    # a lattice polygon is the section polytope of its divisor on a
    # complete fan whose rays include its facet normals
    poly = convex_hull(points)
    assume(poly.dim == 2)
    divisor = divisor_from_polytope(smooth_surface_fan(poly), poly)
    assert nef_polytope(divisor) == poly


def test_cartier_data_anticanonical(p2_delta):
    data = cartier_data(anticanonical(P2_FAN))
    assert set(data.per_cone) == set(p2_delta.vertices)


def test_cartier_data_zero_divisor():
    data = cartier_data(ToricDivisor(P2_FAN, (0, 0, 0)))
    assert set(data.per_cone) == {(0, 0)}


def test_cartier_data_bundle_h():
    # H on the bundle fan: (0,0,-1) on the infinity liftings and (m_tau, 0)
    # on the zero liftings, m_tau the Cartier data of D on the base
    ray_idx = P2_FAN.rays.index((1, 0))
    a = ToricDivisor(P2_FAN, tuple(1 if i == ray_idx else 0 for i in range(3)))
    base_data = set(cartier_data(a).per_cone)
    bundle = projective_bundle_fan(P2_FAN, a)
    h = bundle_nef_divisor(bundle, P2_FAN, a)
    values = set(cartier_data(h).per_cone)
    assert values == {(0, 0, -1)} | {m + (0,) for m in base_data}
    assert base_data == {(-1, 0), (0, 0), (-1, 1)}


def test_cartier_rejects_non_cartier():
    fan = make_fan([(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
    divisor = ToricDivisor(fan, (1, 0, 0))
    with pytest.raises(DomainError):
        cartier_data(divisor)


def test_nef_ample_anticanonical():
    mk = anticanonical(P2_FAN)
    assert nef_polytope(mk).dim == 2 and is_ample(mk)


# ---------------------------------------------------------------------------
# projective bundle and contraction
# ---------------------------------------------------------------------------

def test_bundle_fan_p1():
    a = ToricDivisor(P1_FAN, (1, 1))
    fan = projective_bundle_fan(P1_FAN, a)
    assert set(fan.rays) == {(1, 1), (-1, 1), (0, 1), (0, -1)}
    assert len(fan.max_cones) == 4
    # with all a_j = 1, 2H is anticanonical
    h = bundle_nef_divisor(fan, P1_FAN, a)
    two_h = ToricDivisor(fan, tuple(2 * c for c in h.coeffs))
    assert linearly_equivalent(two_h, anticanonical(fan))


def test_bundle_fan_p2():
    ray_idx = P2_FAN.rays.index((1, 0))
    a = ToricDivisor(P2_FAN, tuple(1 if i == ray_idx else 0 for i in range(3)))
    fan = projective_bundle_fan(P2_FAN, a)
    assert set(fan.rays) == {(1, 0, 1), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)}
    assert len(fan.max_cones) == 6
    assert is_smooth(fan) and is_complete(fan)


def test_bundle_fan_trivial_is_product():
    a = ToricDivisor(P2_FAN, (0, 0, 0))
    fan = projective_bundle_fan(P2_FAN, a)
    expected = make_fan(
        [r + (0,) for r in P2_FAN.rays] + [(0, 0, 1), (0, 0, -1)],
        [cone + (3,) for cone in P2_FAN.max_cones]
        + [cone + (4,) for cone in P2_FAN.max_cones])
    assert fan == expected


def test_bundle_fan_rejects_negative():
    with pytest.raises(InputError):
        projective_bundle_fan(P2_FAN, ToricDivisor(P2_FAN, (-1, 0, 0)))


def test_contraction_to_p3_like_fan():
    ray_idx = P2_FAN.rays.index((1, 0))
    a = ToricDivisor(P2_FAN, tuple(1 if i == ray_idx else 0 for i in range(3)))
    bundle = projective_bundle_fan(P2_FAN, a)
    h = bundle_nef_divisor(bundle, P2_FAN, a)
    contracted = semiample_contraction(bundle, h)
    assert len(contracted.max_cones) == 4
    assert is_smooth(contracted) and is_complete(contracted) and is_fano(contracted)
    # a smooth complete toric 3-fold with 4 rays is projective 3-space
    assert len(contracted.rays) == 4
    p3_fan = normal_fan(convex_hull(P3_DELTA))
    assert gl_canonical_form(contracted) == gl_canonical_form(p3_fan)
    # the contraction merges exactly the three infinity liftings
    assert contracted == normal_fan(nef_polytope(h))


def test_contraction_of_ample_is_identity():
    contracted = semiample_contraction(P2_FAN, anticanonical(P2_FAN))
    assert contracted == P2_FAN


def test_contraction_blowdown():
    blowup = make_fan([(1, 0), (0, 1), (-1, -1), (1, 1)],
                      [(0, 3), (1, 3), (1, 2), (0, 2)])
    assert is_smooth(blowup) and is_complete(blowup)
    hyperplane = nef_polytope(ToricDivisor(P2_FAN, (1, 0, 0)))
    pullback = divisor_from_polytope(blowup, hyperplane)
    contracted = semiample_contraction(blowup, pullback)
    assert contracted == P2_FAN


def test_contraction_rejects_non_nef():
    ray = HEX_FAN.rays.index((1, 0))
    coeffs = tuple(2 if i == ray else 0 for i in range(6))
    with pytest.raises(DomainError):
        semiample_contraction(HEX_FAN, ToricDivisor(HEX_FAN, coeffs))


def test_fano_examples():
    assert is_fano(P2_FAN)
    assert is_fano(HEX_FAN)
    f2 = projective_bundle_fan(P1_FAN, ToricDivisor(P1_FAN, (2, 0)))
    nef_polytope(anticanonical(f2))  # -K is nef: F_2 is semi-Fano
    assert not is_fano(f2)                # but -K is not strictly convex


def test_contracted_fano_anticanonical_multiple():
    ray_idx = P2_FAN.rays.index((1, 0))
    a = ToricDivisor(P2_FAN, tuple(1 if i == ray_idx else 0 for i in range(3)))
    bundle = projective_bundle_fan(P2_FAN, a)
    h = bundle_nef_divisor(bundle, P2_FAN, a)
    contracted = semiample_contraction(bundle, h)
    pushed = ToricDivisor(
        contracted,
        tuple(h.coeffs[bundle.rays.index(r)] for r in contracted.rays))
    four_h = ToricDivisor(contracted, tuple(4 * c for c in pushed.coeffs))
    witness = linear_equivalence_witness(four_h, anticanonical(contracted))
    assert witness is not None


# ---------------------------------------------------------------------------
# linear equivalence / Calabi-Yau condition
# ---------------------------------------------------------------------------

def test_equivalence_bundle_relation():
    a = ToricDivisor(P1_FAN, (1, 1))
    fan = projective_bundle_fan(P1_FAN, a)
    e0 = fan.rays.index((0, -1))
    d_e0 = ToricDivisor(fan, tuple(1 if i == e0 else 0 for i in range(4)))
    h = bundle_nef_divisor(fan, P1_FAN, a)
    assert linear_equivalence_witness(d_e0, h) == (0, 1)


def test_equivalence_reflexive():
    mk = anticanonical(P2_FAN)
    assert linear_equivalence_witness(mk, mk) == (0, 0)


def test_equivalence_hyperplanes():
    i1 = P2_FAN.rays.index((1, 0))
    i2 = P2_FAN.rays.index((0, 1))
    d1 = ToricDivisor(P2_FAN, tuple(1 if i == i1 else 0 for i in range(3)))
    d2 = ToricDivisor(P2_FAN, tuple(1 if i == i2 else 0 for i in range(3)))
    assert linear_equivalence_witness(d1, d2) == (-1, 1)


def test_not_equivalent():
    d1 = ToricDivisor(HEX_FAN, (1, 0, 0, 0, 0, 0))
    d2 = ToricDivisor(HEX_FAN, (0, 1, 0, 0, 0, 0))
    assert not linearly_equivalent(d1, d2)


def test_calabi_yau_cover_examples():
    assert is_calabi_yau_cover(P1_FAN, ToricDivisor(P1_FAN, (1, 1)), 2)
    p3_fan = normal_fan(convex_hull(P3_DELTA))
    deg2 = divisor_from_polytope(
        p3_fan, nef_polytope(ToricDivisor(p3_fan, (1, 1, 0, 0))))
    assert is_calabi_yau_cover(p3_fan, deg2, 3)
    deg3 = anticanonical(P2_FAN)
    assert not is_calabi_yau_cover(P2_FAN, deg3, 3)
    with pytest.raises(InputError):
        is_calabi_yau_cover(P2_FAN, deg3, 1)


# ---------------------------------------------------------------------------
# round trips and serialization
# ---------------------------------------------------------------------------

CUBE_FAN = normal_fan(convex_hull(
    [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]))


@st.composite
def nef_divisors_and_polytopes(draw):
    """A nef divisor on a small complete fan, the set S of its Cartier
    data, and a polytope P built from S: conv(S) itself ("equal"), conv(S)
    without one of its vertices, which leaves that m_sigma outside P
    ("outside"), conv(S) with a point beyond it, which gives P a vertex no
    m_sigma is ("missing"), or the hull of random points ("random")."""
    fan = draw(st.sampled_from([P2_FAN, HEX_FAN, P1_FAN, CUBE_FAN]))
    coeffs = draw(st.lists(st.integers(-1, 2), min_size=len(fan.rays),
                           max_size=len(fan.rays)))
    divisor = ToricDivisor(fan, tuple(coeffs))
    try:
        hull = nef_polytope(divisor)
    except DomainError:
        assume(False)
    points = sorted(set(cartier_data(divisor).per_cone))
    kind = draw(st.sampled_from(["equal", "outside", "missing", "random"]))
    if kind == "equal":
        polytope = hull
    elif kind == "outside":
        assume(len(hull.vertices) > 1)
        dropped = draw(st.sampled_from(hull.vertices))
        polytope = convex_hull([m for m in points if m != dropped])
    elif kind == "missing":
        beyond = (hull.vertices[-1][0] + 1,) + hull.vertices[-1][1:]
        polytope = convex_hull(points + [beyond])
    else:
        d = fan.ambient_dim
        polytope = convex_hull(draw(st.lists(
            st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=6)))
    return divisor, points, kind, polytope


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(nef_divisors_and_polytopes())
def test_nef_polytope_test_agrees_with_the_hull(case):
    # conv(m_sigma) == P, read with no hull, is the hull's equality
    divisor, points, kind, polytope = case
    same = convex_hull(points) == polytope
    assert is_nef_polytope(divisor, polytope) == same
    assert same == {"equal": True, "outside": False,
                    "missing": False}.get(kind, same)


def test_nef_polytope_test_rejects_a_non_nef_divisor():
    exceptional = ToricDivisor(HEX_FAN, (1, 0, 0, 0, 0, 0))
    with pytest.raises(DomainError, match="not nef"):
        nef_polytope(exceptional)
    assert not is_nef_polytope(exceptional, convex_hull(HEX_NABLA))


def test_nef_divisor_polytope_roundtrip():
    for poly_verts in ([(0, 0), (1, 0), (0, 1)], P2_DELTA):
        poly = convex_hull(poly_verts)
        divisor = divisor_from_polytope(P2_FAN, poly)
        assert nef_polytope(divisor) == poly


def test_normal_fan_refines_divisor_normal_fan():
    # every cone of the fine fan sits inside a cone of the coarse one
    hyperplane = ToricDivisor(HEX_FAN, tuple(1 for _ in range(6)))
    coarse = normal_fan(nef_polytope(hyperplane))
    for cone in HEX_FAN.max_cones:
        rays = HEX_FAN.cone_rays(cone)
        assert any(all(_in_cone(coarse, c, r) for r in rays)
                   for c in coarse.max_cones)


def _in_cone(fan, cone, vector):
    return cone_contains(make_cone(fan.cone_rays(cone)), vector)


def test_fan_json_roundtrip(capsys):
    # the fan that dualize writes reads back as the dual side's fan
    assert cli.main(["dualize", "--input", "p2-triple"]) == 0
    doc = json.loads(capsys.readouterr().out)["fan"]
    dual = find_entry("p2-triple").build().dual
    assert doc["dim"] == dual.fan.ambient_dim
    assert make_fan(doc["rays"], doc["max_cones"]) == dual.fan


@pytest.mark.parametrize("index", [5, -1])
def test_make_fan_rejects_a_missing_ray_index(index):
    rays = [(1, 0), (0, 1), (-1, -1)]
    with pytest.raises(InputError, match="cone refers to a missing ray"):
        make_fan(rays, [(0, 1), (1, index)])


def test_make_fan_rejects_a_repeated_ray_index():
    # with the index kept twice, is_smooth read the 3-ray "cone" of the
    # smooth P^2 fan as non-unimodular
    rays = [(1, 0), (0, 1), (-1, -1)]
    with pytest.raises(InputError, match=r"cone \(0, 2, 2\) repeats a ray"):
        make_fan(rays, [(0, 1), (1, 2), (0, 2, 2)])


@pytest.mark.parametrize("rays, cones", [
    ([(0, 0), (1, 0)], [(0, 1)]),
    ([()], [(0,)]),
])
def test_make_fan_rejects_a_zero_ray(rays, cones):
    with pytest.raises(InputError,
                       match=re.escape(f"ray {rays[0]} is not a primitive")):
        make_fan(rays, cones)


@pytest.mark.parametrize("bad", [Fraction(1, 1), 1.0, True],
                         ids=["fraction", "float", "bool"])
def test_fan_and_divisor_refuse_a_non_integer_coordinate(bad):
    # the kernel is integer-only: a ray or a coefficient that is a
    # Fraction, a float or a bool is refused where it enters
    rays = [(1, 0), (0, 1), (-1, -1)]
    cones = [(0, 1), (1, 2), (0, 2)]
    with pytest.raises(InputError, match="expected integer coordinates"):
        make_fan([(bad, 0)] + rays[1:], cones)
    with pytest.raises(InputError, match="expected integer coordinates"):
        ToricDivisor(make_fan(rays, cones), (1, bad, 1))
