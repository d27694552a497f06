"""Lattice-core: hulls, duals, points, volumes, cones, triangulations.

Derived expected values are frozen after being computed by the in-test
oracles (shoelace areas, Pick counts, Caratheodory membership); the
oracles stay independent of the code paths they check.
"""
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    HEX_NABLA,
    NON_UNIMODULAR_4D,
    P2_DELTA,
    P3_DELTA,
    P4_DELTA,
    boundary_lattice_count,
    box_lattice_points,
    cayley_factors,
    cayley_polytope,
    cone_contains,
    elementary_product,
    in_convex_hull_oracle,
    random_lattice_polygon,
    pyramid,
    random_reflexive_polygon,
    reference_pulling,
    shoelace_area,
)
from nefmirror import intlin, lattice
from nefmirror.catalog import load_catalog
from nefmirror.errors import DomainError, InputError
from nefmirror.intlin import (
    det,
    dot,
    matrix_rank,
    nullspace,
    primitivize,
    scaled_inverse,
    vsub,
)
from nefmirror.lattice import (
    cayley_pyramid,
    convex_hull,
    dual_cone,
    is_reflexive,
    lattice_points,
    make_cone,
    maximal_boundary_triangulation,
    minkowski_sum,
    polar_dual,
    pulling_triangulation,
)
from nefmirror.nefpart import build_nef_partition

UNIT_TRIANGLE = [(0, 0), (1, 0), (0, 1)]


# ---------------------------------------------------------------------------
# convex_hull
# ---------------------------------------------------------------------------

def test_hull_drops_interior_point():
    poly = convex_hull([(0, 0), (2, 0), (0, 2), (1, 1)])
    assert poly.vertices == ((0, 0), (0, 2), (2, 0))


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2, 1), 1.0, True],
                         ids=["fraction", "integral-fraction", "float", "bool"])
def test_hull_and_cone_refuse_a_non_integer_coordinate(bad):
    # the kernel is integer-only: a Fraction, even an integral one, a
    # float or a bool is refused where it enters, not read as a number
    with pytest.raises(InputError, match="expected integer coordinates"):
        convex_hull([(0, 0), (1, 0), (0, bad)])
    with pytest.raises(InputError, match="expected integer coordinates"):
        make_cone([(1, 0), (bad, 1)])


def test_hull_p2_anticanonical_triangle():
    poly = convex_hull(P2_DELTA)
    assert poly.facets == (((-1, -1), 1), ((0, 1), 1), ((1, 0), 1))


def test_hull_hexagon():
    poly = convex_hull(HEX_NABLA)
    assert len(poly.vertices) == 6
    assert set(poly.vertices) == set(HEX_NABLA)


def test_hull_dimension_mismatch():
    with pytest.raises(InputError):
        convex_hull([(0, 0), (1, 0, 0)])


def test_hull_against_membership_oracle():
    rng = random.Random(20260810)
    for dim in (2, 3, 4):
        for _ in range(8):
            pts = [tuple(rng.randint(-3, 3) for _ in range(dim))
                   for _ in range(rng.randint(dim + 1, dim + 6))]
            try:
                poly = convex_hull(pts)
            except InputError:
                continue
            for p in pts:
                assert poly.contains(p)
            for v in poly.vertices:
                others = [p for p in set(pts) if p != v]
                assert not in_convex_hull_oracle(v, others)
            for p in set(pts):
                if p not in poly.vertices:
                    assert in_convex_hull_oracle(p, list(poly.vertices))


def test_equality_reads_vertices_only():
    pts = [(-2, -1, 2, -1), (0, 0, 0, 0), (0, 2, -2, -1), (2, -1, 0, 2)]
    poly = convex_hull(pts)
    again = convex_hull(poly.vertices)
    assert poly.dim < poly.ambient_dim
    assert poly == again
    assert hash(poly) == hash(again)


def test_hull_of_the_cross_polytope_in_r9():
    # conv(+-e_i) has the 2^9 facets <x, s> >= -1, s in {+-1}^9, and
    # normalized volume 9! * 2^9 / 9!
    units = [tuple(int(i == j) for j in range(9)) for i in range(9)]
    poly = convex_hull(units + [tuple(-x for x in e) for e in units])
    assert len(poly.vertices) == 18
    assert sorted(poly.facets) == [(s, 1) for s in product((-1, 1), repeat=9)]
    assert poly.nvolume == 512


def test_hull_of_the_unit_simplex_in_r12():
    units = [tuple(int(i == j) for j in range(12)) for i in range(12)]
    poly = convex_hull([(0,) * 12] + units)
    assert len(poly.vertices) == 13
    assert len(poly.facets) == 13
    assert poly.nvolume == 1


SETTINGS = settings(max_examples=120, deadline=None, derandomize=True,
                    database=None)


@st.composite
def lower_dimensional_sets(draw):
    """Lattice points p + sum c_j v_j on an affine span of dimension below
    d, with a unimodular change of coordinates and a translation of R^d."""
    d = draw(st.integers(2, 4))
    k = draw(st.integers(1, d - 1))
    vec = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    base = draw(vec)
    dirs = draw(st.lists(vec, min_size=k, max_size=k))
    coeffs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                           min_size=1, max_size=7))
    pts = [tuple(b + sum(c * v[i] for c, v in zip(cs, dirs))
                 for i, b in enumerate(base)) for cs in coeffs]
    g = elementary_product(d, draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2),
                  st.booleans()), max_size=8)))
    shift = draw(vec)
    return pts, g, shift


@SETTINGS
@given(lower_dimensional_sets())
def test_lower_dimensional_hull_holds_its_points(case):
    pts, _, _ = case
    poly = convex_hull(pts)
    assert poly.dim < poly.ambient_dim
    assert len(poly.equations) == poly.ambient_dim - poly.dim
    for p in pts:
        assert all(dot(p, n) >= -c for n, c in poly.facets)
        assert all(dot(p, n) == rhs for n, rhs in poly.equations)
        assert poly.contains(p)


@SETTINGS
@given(lower_dimensional_sets())
def test_lower_dimensional_volume_is_unimodular_invariant(case):
    pts, g, shift = case
    poly = convex_hull(pts)
    moved = convex_hull([tuple(dot(row, p) + t for row, t in zip(g, shift))
                         for p in pts])
    assert moved.dim == poly.dim
    assert moved.nvolume == poly.nvolume


@st.composite
def full_dimensional_sets(draw, max_extra=5):
    """Distinct lattice points spanning R^d, d = 1..3, in drawn order."""
    d = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d),
                        min_size=d + 1, max_size=d + 1 + max_extra,
                        unique=True))
    assume(convex_hull(pts).dim == d)
    return pts


@SETTINGS
@given(full_dimensional_sets(), st.sampled_from([2, 3]))
def test_dilated_hull_is_the_scaled_hull(pts, k):
    poly = convex_hull(pts)
    scaled = convex_hull([tuple(k * x for x in p) for p in pts])
    assert [n for n, _ in scaled.facets] == [n for n, _ in poly.facets]
    assert [c for _, c in scaled.facets] == [k * c for _, c in poly.facets]
    assert scaled.vertices == tuple(tuple(k * x for x in v)
                                    for v in poly.vertices)
    assert scaled.nvolume == k ** poly.dim * poly.nvolume
    for normal, _ in scaled.facets + poly.facets:
        assert all(type(x) is int for x in normal)
        assert primitivize(normal) == normal


def _assert_boundary_triangulates(poly):
    """The boundary simplices come in lex order, each holds dim affinely
    independent points of one facet, each ridge lies on two simplices, and
    a full-dimensional hull's volume is the sum of the simplices coned from
    its first vertex."""
    assert list(poly.boundary) == sorted(poly.boundary)
    ridges = Counter(simplex[:i] + simplex[i + 1:]
                     for simplex in poly.boundary for i in range(poly.dim))
    assert set(ridges.values()) <= {2}
    for simplex in poly.boundary:
        assert len(simplex) == poly.dim
        assert list(simplex) == sorted(simplex)
        if poly.dim > 1:
            assert matrix_rank([vsub(p, simplex[0]) for p in simplex[1:]]) \
                == poly.dim - 1
        assert any(all(dot(p, n) == -c for p in simplex)
                   for n, c in poly.facets)
    if poly.dim == poly.ambient_dim:
        apex = poly.vertices[0]
        assert sum(abs(det([vsub(p, apex) for p in simplex]))
                   for simplex in poly.boundary) == poly.nvolume


@SETTINGS
@given(full_dimensional_sets())
def test_boundary_triangulates_a_full_dimensional_hull(pts):
    _assert_boundary_triangulates(convex_hull(pts))


@SETTINGS
@given(lower_dimensional_sets())
def test_boundary_triangulates_a_lower_dimensional_hull(case):
    pts, _, _ = case
    poly = convex_hull(pts)
    assert poly.dim < poly.ambient_dim
    _assert_boundary_triangulates(poly)


def _assert_boundary_simplices_span_facets(poly):
    """The hyperplane through each boundary simplex, a kernel vector of its
    edges by ``nullspace`` oriented so that every vertex satisfies it, is
    one of ``poly.facets``: the same primitive normal and offset on a
    full-dimensional hull, the same values on the vertices up to a positive
    factor on a lower-dimensional one (its normals are representatives
    modulo the equations)."""
    units = [tuple(int(i == j) for j in range(poly.ambient_dim))
             for i in range(poly.ambient_dim)]
    facet_values = [[dot(v, n) + c for v in poly.vertices]
                    for n, c in poly.facets]
    for simplex in poly.boundary:
        base = simplex[0]
        rows = [vsub(p, base) for p in simplex[1:]]
        for normal in nullspace(rows) if rows else units:
            values = [dot(v, normal) - dot(base, normal) for v in poly.vertices]
            if any(values):
                break
        if min(values) < 0:
            normal = tuple(-x for x in normal)
            values = [-x for x in values]
        assert min(values) == 0
        normal = primitivize(normal)
        if poly.dim == poly.ambient_dim:
            assert (normal, -dot(base, normal)) in poly.facets
        else:
            k = next(i for i, x in enumerate(values) if x)
            assert any(row[k] > 0 and all(x * row[k] == y * values[k]
                                          for x, y in zip(values, row))
                       for row in facet_values)


def _rank_vertices(poly, points):
    """Vertex oracle by rank: a point of the hull is a vertex iff the
    normals of the facets and equations through it span R^d."""
    equations = [n for n, _ in poly.equations]
    return tuple(p for p in sorted(set(points))
                 if matrix_rank(equations + [n for n, c in poly.facets
                                             if dot(p, n) + c == 0])
                 == poly.ambient_dim)


@SETTINGS
@given(full_dimensional_sets(), st.sampled_from([1, 2, 3]))
def test_full_dimensional_hull_matches_the_elimination_oracles(pts, k):
    scaled = [tuple(k * x for x in p) for p in pts]
    poly = convex_hull(scaled)
    _assert_boundary_simplices_span_facets(poly)
    assert poly.vertices == _rank_vertices(poly, scaled)


@SETTINGS
@given(lower_dimensional_sets())
def test_lower_dimensional_hull_matches_the_elimination_oracles(case):
    pts, _, _ = case
    poly = convex_hull(pts)
    _assert_boundary_simplices_span_facets(poly)
    assert poly.vertices == _rank_vertices(poly, pts)


@pytest.mark.parametrize("verts", [P2_DELTA, P3_DELTA, P4_DELTA,
                                   NON_UNIMODULAR_4D],
                         ids=["p2", "p3", "p4", "non-unimodular-4d"])
def test_vertices_of_all_lattice_points_match_the_rank_oracle(verts):
    # most lattice points lie on the boundary without being vertices
    poly = convex_hull(verts)
    for hull in (poly, polar_dual(poly)):
        pts = lattice_points(hull)
        again = convex_hull(pts)
        assert again.vertices == hull.vertices == _rank_vertices(again, pts)


def test_a_boundary_point_off_the_vertices_is_not_a_vertex():
    # (1, 0) lies on a boundary simplex of the segment from (0, 0) to (2, 0)
    pts = [(0, 0), (0, 1), (1, 0), (2, 0)]
    poly = convex_hull(pts)
    assert poly.vertices == ((0, 0), (0, 1), (2, 0))
    assert poly.vertices == _rank_vertices(poly, pts)
    assert any((1, 0) in simplex for simplex in poly.boundary)


# sha256 of (vertices, facets, equations, dim, nvolume, sorted(boundary))
HULL_SHA256 = {
    "p2-triple": "b025d8fb432b7b2020ff0e2b44cb14bc8be4de7ac1e14b8501258ad0cdd78b20",
    "p2-(12)(3)": "d3da6a28e82cd441f8c969a886e7c3e48b892f1e41ef84f2cd67b0296cb134e6",
    "p2-(3)(12)": "d3da6a28e82cd441f8c969a886e7c3e48b892f1e41ef84f2cd67b0296cb134e6",
    "p1-legendre": "68c82739467b0a1bb4cfd923705da7865849994baf7f4ea1496d6ac20a4c7ed6",
    "p3-(12)(34)": "e204ff2184b83644914add54fb62052923412a43edd3e71aa62590e342caf536",
    "p3-(123)(4)": "9f0679c21cae6288481ed7f0bb6d3c9c79fd91ec56ce0737f22502020f07c691",
    "p4-2parts": "a95be370ca29eb239595c532ee0da008e95b90b0686df8caebeeb54a9a36b5e5",
    "p4-5parts": "f327a5f27038fab7594389160c4b55a7914a027eb52ba7a4a4e20c1f85546e0a",
}


def _hull_digest(polys):
    doc = [(p.vertices, p.facets, p.equations, p.dim, p.nvolume,
            sorted(p.boundary)) for p in polys]
    return hashlib.sha256(repr(doc).encode()).hexdigest()


def test_hulls_are_pinned():
    """Delta, nabla and both MPCP polar duals of every catalog entry, and
    the Cayley pyramids of the two- and five-part P^4 (in R^6 and R^9).
    The digests were computed at commit 720e60e, whose hull built every
    facet by elimination and found vertices by rank, before the
    horizon-ridge facets and the facet-incidence vertex test."""
    found = {}
    for entry in load_catalog()["entries"]:
        np_ = entry.build()
        nabla = np_.dual.delta
        found[entry.name] = _hull_digest(
            [np_.delta, nabla, polar_dual(np_.delta), polar_dual(nabla)])
    delta = convex_hull(P4_DELTA)
    for name, parts in (("p4-2parts", [[0, 1], [2, 3, 4]]),
                        ("p4-5parts", [[0], [1], [2], [3], [4]])):
        found[name] = _hull_digest(
            [build_nef_partition(delta, parts).cayley_pyramid])
    assert found == HULL_SHA256


@pytest.mark.parametrize("verts", [P3_DELTA, P4_DELTA], ids=["p3", "p4"])
def test_full_dimensional_hull_eliminates_only_for_its_first_simplex(
        monkeypatch, verts):
    # the first simplex takes its d + 1 facets from one scaled inverse,
    # every later facet grows from a horizon ridge, and vertices are read
    # from facet incidence, so a regression to per-facet elimination or a
    # per-point rank shows in the counts
    pts = lattice_points(convex_hull(verts))
    counts = Counter()

    def counting(fn):
        def wrapper(*args):
            counts[fn.__name__] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(lattice, "scaled_inverse", counting(scaled_inverse))
    monkeypatch.setattr(lattice, "matrix_rank", counting(matrix_rank))
    # lattice imports no nullspace; one that came back would be counted
    monkeypatch.setattr(lattice, "nullspace", counting(nullspace),
                        raising=False)
    monkeypatch.setattr(intlin, "nullspace", counting(nullspace))
    assert len(pts) > len(verts[0]) + 1
    assert convex_hull(pts).vertices == tuple(sorted(verts))
    assert counts == {"scaled_inverse": 1}


def test_integer_hull_and_pulling_build_no_fraction(monkeypatch):
    delta_points = lattice_points(convex_hull(P4_DELTA))
    simplex_points = lattice_points(convex_hull(
        [(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3)]))
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert convex_hull(delta_points).vertices == tuple(sorted(P4_DELTA))
    assert len(built) == 0
    assert len(pulling_triangulation(simplex_points)) == 27
    assert len(built) == 0
    Fraction(1, 2)
    assert len(built) == 1


# ---------------------------------------------------------------------------
# polar_dual / is_reflexive
# ---------------------------------------------------------------------------

def test_polar_dual_p2():
    dual = polar_dual(convex_hull(P2_DELTA))
    assert dual.vertices == ((-1, -1), (0, 1), (1, 0))


def test_polar_dual_cross_polytope():
    cross = convex_hull([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert polar_dual(cross).vertices == ((-1, -1), (-1, 1), (1, -1), (1, 1))


def test_polar_dual_scaled_simplex():
    # twice conv(e1, e2, -e1 - e2) has half of that triangle's polar as
    # its polar, which is not a lattice polytope
    doubled = convex_hull([(2, 0), (0, 2), (-2, -2)])
    assert not is_reflexive(doubled)
    with pytest.raises(DomainError, match="not a lattice polytope"):
        polar_dual(doubled)


def test_polar_involution():
    rng = random.Random(7)
    polys = [convex_hull(P2_DELTA), convex_hull(HEX_NABLA), convex_hull(P3_DELTA)]
    polys += [random_reflexive_polygon(rng) for _ in range(6)]
    for poly in polys:
        assert polar_dual(polar_dual(poly)) == poly


def test_polar_needs_interior_origin():
    shifted = convex_hull([(5, 7), (6, 7), (5, 8)])
    with pytest.raises(DomainError):
        polar_dual(shifted)


def test_is_reflexive_examples():
    assert is_reflexive(convex_hull(P2_DELTA))
    assert is_reflexive(convex_hull(HEX_NABLA))
    shifted = convex_hull([(6, 7), (5, 8), (4, 5)])
    assert not is_reflexive(shifted)


# ---------------------------------------------------------------------------
# lattice_points
# ---------------------------------------------------------------------------

def test_lattice_points_unit_triangle():
    assert lattice_points(convex_hull(UNIT_TRIANGLE)) == [(0, 0), (0, 1), (1, 0)]


def test_lattice_points_degree_two_triangle():
    # the degree-two column group of the 4x9 golden GKZ matrix
    poly = convex_hull([(-1, -1), (1, -1), (-1, 1)])
    assert lattice_points(poly) == [(-1, -1), (-1, 0), (-1, 1),
                                    (0, -1), (0, 0), (1, -1)]


def test_lattice_points_anticanonical_by_pick():
    poly = convex_hull(P2_DELTA)
    area = shoelace_area(poly.vertices)
    boundary = boundary_lattice_count(poly)
    interior = area - Fraction(boundary, 2) + 1  # Pick
    assert (area, boundary, interior) == (Fraction(9, 2), 9, 1)
    assert len(lattice_points(poly)) == boundary + interior == 10


def sheared_p3(k):
    """The anticanonical polytope of P^3 moved by ((1,0,0),(k,1,0),(k,k,1)):
    its 35 lattice points stay, while its bounding box grows with k."""
    g = ((1, 0, 0), (k, 1, 0), (k, k, 1))
    return convex_hull([tuple(dot(row, v) for row in g) for v in P3_DELTA])


def assert_scan_matches_the_box_scan(poly):
    """The scan finds the box scan's points, and tests no other candidate:
    the facets and equations leave the exact interval of the last
    coordinate, so its cost does not follow the box's volume."""
    tested = []
    contains = lattice.LatticePolytope.contains

    def counting(self, point):
        tested.append(point)
        return contains(self, point)

    lattice.LatticePolytope.contains = counting
    try:
        pts = lattice._scan_lattice_points(poly)
    finally:
        lattice.LatticePolytope.contains = contains
    assert pts == box_lattice_points(poly)
    assert tested == pts


@pytest.mark.parametrize("k", [0, 3, 10])
def test_lattice_points_of_a_sheared_p3_match_the_box_scan(k):
    poly = sheared_p3(k)
    assert len(lattice_points(poly)) == 35
    assert_scan_matches_the_box_scan(poly)


def test_lattice_points_of_the_catalog_polytopes_match_the_box_scan():
    for entry in load_catalog()["entries"]:
        np_ = entry.build()
        for side in (np_, np_.dual):
            for poly in (side.delta, side.polar, *side.section_polytopes):
                assert_scan_matches_the_box_scan(poly)


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=6)))
def test_lattice_points_match_the_box_scan(pts):
    # full-dimensional and lower-dimensional hulls, points and segments
    assert_scan_matches_the_box_scan(convex_hull(pts))


# ---------------------------------------------------------------------------
# normalized volume
# ---------------------------------------------------------------------------

def test_volume_unit_simplices():
    for dim in range(1, 5):
        verts = [tuple(0 for _ in range(dim))]
        verts += [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
        assert convex_hull(verts).nvolume == 1


def test_volume_hexagon():
    poly = convex_hull(HEX_NABLA)
    assert shoelace_area(poly.vertices) == 3
    assert poly.nvolume == 6


def test_volume_anticanonical():
    assert convex_hull(P2_DELTA).nvolume == 9


def test_volume_additive_over_triangulation():
    for verts in (HEX_NABLA, [(1, 0), (0, 1), (-1, -1)], P3_DELTA):
        poly = convex_hull(verts)
        tri = maximal_boundary_triangulation(poly)
        total = sum(abs(det([tri.uses_points[i] for i in simplex if i != 0]))
                    for simplex in tri.simplices)
        assert total == poly.nvolume


def test_pick_property_random_polygons():
    rng = random.Random(11)
    for _ in range(12):
        poly = random_lattice_polygon(rng)
        pts = lattice_points(poly)
        boundary = boundary_lattice_count(poly)
        interior = len(pts) - boundary
        assert poly.nvolume == 2 * interior + boundary - 2


# ---------------------------------------------------------------------------
# minkowski_sum
# ---------------------------------------------------------------------------

def test_minkowski_hexagon_decomposition():
    parts = [convex_hull([(0, 0), (1, 0)]),
             convex_hull([(0, 0), (0, 1)]),
             convex_hull([(0, 0), (-1, -1)])]
    total = minkowski_sum(minkowski_sum(parts[0], parts[1]), parts[2])
    assert total == convex_hull(HEX_NABLA)


def test_minkowski_identity():
    poly = convex_hull(P2_DELTA)
    origin = convex_hull([(0, 0)])
    assert minkowski_sum(poly, origin) == poly


def test_minkowski_section_polytopes():
    t1 = convex_hull([(0, 0), (-1, 0), (-1, 1)])
    t2 = convex_hull([(0, 0), (0, -1), (1, -1)])
    t3 = convex_hull(UNIT_TRIANGLE)
    total = minkowski_sum(minkowski_sum(t1, t2), t3)
    assert total == convex_hull(P2_DELTA)


def test_minkowski_commutative_associative():
    rng = random.Random(23)
    polys = [random_lattice_polygon(rng, spread=2) for _ in range(3)]
    a, b, c = polys
    assert minkowski_sum(a, b) == minkowski_sum(b, a)
    assert minkowski_sum(minkowski_sum(a, b), c) == \
        minkowski_sum(a, minkowski_sum(b, c))


# ---------------------------------------------------------------------------
# cayley_pyramid, and the two-hull reference cayley_polytope / pyramid
# ---------------------------------------------------------------------------

def test_cayley_single():
    poly = convex_hull(UNIT_TRIANGLE)
    cay = cayley_polytope([poly])
    assert cay.vertices == tuple((1,) + v for v in poly.vertices)


def test_cayley_two_segments():
    seg = convex_hull([(0,), (1,)])
    cay = cayley_polytope([seg, seg])
    assert (cay.ambient_dim, cay.dim, len(cay.vertices)) == (3, 2, 4)
    assert cay.nvolume == 2  # a unit square in its span


def test_cayley_p2_partition():
    t1 = convex_hull([(0, 0), (-1, 0), (-1, 1)])
    t2 = convex_hull([(0, 0), (0, -1), (1, -1)])
    t3 = convex_hull(UNIT_TRIANGLE)
    cay = cayley_polytope([t1, t2, t3])
    assert (cay.ambient_dim, cay.dim, len(cay.vertices)) == (5, 4, 9)


def test_pyramid_unit_segment():
    seg = convex_hull([(0, 0), (1, 0)])
    tri = pyramid(seg, (0, 1))
    assert tri.dim == 2
    assert tri.nvolume == seg.nvolume == 1


def test_pyramid_lambda_volume():
    t1 = convex_hull([(0, 0), (-1, 0), (-1, 1)])
    t2 = convex_hull([(0, 0), (0, -1), (1, -1)])
    t3 = convex_hull(UNIT_TRIANGLE)
    lam = pyramid(cayley_polytope([t1, t2, t3]), (0, 0, 0, 0, 0))
    assert lam.dim == 5
    assert lam.nvolume == 6  # = the hexagon volume


def test_pyramid_single_factor():
    lam = pyramid(cayley_polytope([convex_hull(UNIT_TRIANGLE)]), (0, 0, 0))
    assert lam.nvolume == 1


def test_pyramid_height_one_identity():
    # vol(pyramid) equals the base volume when the base is at lattice height 1
    for base_pts in (UNIT_TRIANGLE, [(-1, -1), (1, -1), (-1, 1)]):
        base = cayley_polytope([convex_hull(base_pts)])
        lam = pyramid(base, (0, 0, 0))
        assert lam.nvolume == base.nvolume


def test_pyramid_apex_in_span():
    poly = cayley_polytope([convex_hull(UNIT_TRIANGLE)])
    with pytest.raises(DomainError):
        pyramid(poly, (1, 0, 0))


def test_cayley_pyramid_p2_partition():
    t1 = convex_hull([(0, 0), (-1, 0), (-1, 1)])
    t2 = convex_hull([(0, 0), (0, -1), (1, -1)])
    t3 = convex_hull(UNIT_TRIANGLE)
    lam = cayley_pyramid([t1, t2, t3])
    assert (lam.ambient_dim, lam.dim, len(lam.vertices)) == (5, 5, 10)
    assert lam.vertices[0] == (0, 0, 0, 0, 0)
    assert lam.nvolume == 6  # = the hexagon volume


def test_cayley_pyramid_rejects_bad_factors():
    with pytest.raises(InputError):
        cayley_pyramid([])
    with pytest.raises(InputError):
        cayley_pyramid([convex_hull([(0,)]), convex_hull(UNIT_TRIANGLE)])


@SETTINGS
@given(cayley_factors())
def test_cayley_pyramid_is_the_pyramid_over_the_cayley_polytope(polys):
    lam = cayley_pyramid(polys)
    ref = pyramid(cayley_polytope(polys), (0,) * lam.ambient_dim)
    assert lam == ref
    assert (lam.dim, lam.nvolume) == (ref.dim, ref.nvolume)
    assert (lam.facets, lam.equations) == (ref.facets, ref.equations)


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def test_dual_cone_orthant():
    orthant = make_cone([(1, 0), (0, 1)])
    assert dual_cone(orthant) == orthant


def test_dual_cone_example():
    cone = make_cone([(1, 0), (1, 2)])
    assert dual_cone(cone).generators == ((0, 1), (2, -1))


def test_dual_cone_involution():
    rng = random.Random(41)
    cones = [make_cone([(1, 0), (1, 2)]), make_cone([(1, 0), (0, 1)])]
    for _ in range(8):
        gens = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(5)]
        try:
            cone = make_cone(gens)
        except (DomainError, ValueError):
            continue
        if cone.dim != 3:
            continue
        cones.append(cone)
    for cone in cones:
        assert dual_cone(dual_cone(cone)) == cone


def test_make_cone_drops_non_extremal():
    cone = make_cone([(1, 0), (0, 1), (1, 1)])
    assert cone.generators == ((0, 1), (1, 0))


def test_lower_dimensional_cone():
    cone = make_cone([(1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert cone.generators == ((0, 1, 0), (1, 0, 0))
    assert cone.dim == 2
    assert cone_contains(cone, (1, 1, 0))
    assert cone_contains(cone, (0, 0, 0))
    assert not cone_contains(cone, (1, 1, 1))
    assert not cone_contains(cone, (-1, 0, 0))


def test_make_cone_rejects_lines():
    with pytest.raises(DomainError):
        make_cone([(1, 0), (-1, 0), (0, 1)])


# ---------------------------------------------------------------------------
# pulling triangulation
# ---------------------------------------------------------------------------

@SETTINGS
@given(full_dimensional_sets(), st.sampled_from([2, 3]))
def test_pulling_matches_ray_shooting_reference(pts, k):
    for order in (sorted(pts), pts):
        simplices = pulling_triangulation(order)
        assert simplices == reference_pulling(order)
        assert pulling_triangulation(
            [tuple(k * x for x in p) for p in order]) == simplices
        # every point is a vertex, and the simplices fill the hull
        assert {i for s in simplices for i in s} == set(range(len(order)))
        assert sum(abs(det([vsub(order[i], order[s[0]]) for i in s[1:]]))
                   for s in simplices) == convex_hull(order).nvolume


def test_pulling_square_with_centre():
    square = [(0, 0), (0, 2), (2, 0), (2, 2)]
    assert pulling_triangulation([(1, 1)] + square) == [
        (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4)]
    assert pulling_triangulation(square + [(1, 1)]) == [
        (0, 1, 4), (0, 2, 4), (1, 3, 4), (2, 3, 4)]


def test_two_part_p4_mpcp_triangulations_are_pinned():
    np_ = build_nef_partition(convex_hull(P4_DELTA), [[0, 1], [2, 3, 4]])
    found = []
    for delta in (np_.delta, np_.dual.delta):
        tri = maximal_boundary_triangulation(polar_dual(delta))
        digest = hashlib.sha256(json.dumps(sorted(tri.simplices)).encode())
        found.append((len(tri.simplices), digest.hexdigest()))
    assert found == [
        (5, "d6fbc7bb7c22ec5ccab04714a0f864674046cc9309371e4d9afea70c02594414"),
        (211, "262c0dfef6fbc57a3ffb0ef9a8d4778b3f9e82a56d1e6cf3628f85777e5993d9"),
    ]


# ---------------------------------------------------------------------------
# maximal boundary triangulation
# ---------------------------------------------------------------------------

def unimodular(tri):
    """Every cone over a simplex of the triangulation has |det| = 1."""
    return all(abs(det([tri.uses_points[i] for i in simplex if i != 0])) == 1
               for simplex in tri.simplices)


def test_triangulation_hexagon():
    tri = maximal_boundary_triangulation(convex_hull(HEX_NABLA))
    assert len(tri.simplices) == 6
    assert unimodular(tri)


def test_triangulation_p2_dual():
    tri = maximal_boundary_triangulation(convex_hull([(1, 0), (0, 1), (-1, -1)]))
    assert len(tri.simplices) == 3
    assert unimodular(tri)


def test_triangulation_p3_simplex():
    tri = maximal_boundary_triangulation(convex_hull([(1, 0, 0), (0, 1, 0),
                                                      (0, 0, 1), (-1, -1, -1)]))
    assert len(tri.simplices) == 4
    assert unimodular(tri)


def test_triangulation_uses_all_boundary_points():
    poly = convex_hull(P2_DELTA)
    tri = maximal_boundary_triangulation(poly)
    used = {i for simplex in tri.simplices for i in simplex}
    assert used == set(range(len(tri.uses_points)))
    assert len(tri.uses_points) == 10  # origin + 9 boundary points
    assert len(tri.simplices) == 9
    assert unimodular(tri)


def test_triangulation_rejects_non_reflexive():
    with pytest.raises(DomainError):
        maximal_boundary_triangulation(convex_hull([(0, 0), (1, 0), (0, 1)]))
