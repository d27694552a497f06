"""Nef-partitions and Batyrev-Borisov duality."""
import json
import random

import pytest

from conftest import (
    HEX_NABLA,
    P2_DELTA,
    cayley_points,
    random_nef_partition,
    random_reflexive_polygon,
    s_polytope,
)
from nefmirror.catalog import load_catalog
from nefmirror.errors import InputError
from nefmirror.intlin import dot
from nefmirror.lattice import (
    convex_hull,
    dual_cone,
    lattice_points,
    make_cone,
    minkowski_sum_all,
    polar_dual,
)
from nefmirror.nefpart import (
    build_nef_partition,
    cayley_cone,
    cayley_cone_duality_check,
    dualize,
    nef_partition_from_json,
)
DELTA = convex_hull(P2_DELTA)
# canonical ray order of the plane fan is (-1,-1), (0,1), (1,0); with the
# labels rho_1 = (1,0), rho_2 = (0,1), rho_3 = (-1,-1) the parts below are
# indices 2, 1, 0
TRIPLE = build_nef_partition(DELTA, [[2], [1], [0]])
SPLIT_12_3 = build_nef_partition(DELTA, [[2, 1], [0]])
TRIVIAL = build_nef_partition(DELTA, [[0, 1, 2]])
CATALOG_PARTITIONS = {entry.name: entry.build()
                      for entry in load_catalog()["entries"]}


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_triple_sections_are_unit_triangles():
    for poly in TRIPLE.section_polytopes:
        assert poly.nvolume == 1
        assert len(poly.vertices) == 3
        assert (0, 0) in lattice_points(poly)


def test_build_split_sections():
    d1, d2 = SPLIT_12_3.section_polytopes
    assert d1.vertices == ((-1, -1), (-1, 1), (1, -1))
    assert d2.vertices == ((0, 0), (0, 1), (1, 0))


def test_build_trivial_section_is_delta():
    assert TRIVIAL.section_polytopes[0] == DELTA


def test_build_rejects_non_partition():
    with pytest.raises(InputError):
        build_nef_partition(DELTA, [[0, 1]])
    with pytest.raises(InputError):
        build_nef_partition(DELTA, [[0, 1], [1, 2]])


def test_build_rejects_an_empty_part():
    with pytest.raises(InputError, match="part 1 is empty"):
        build_nef_partition(DELTA, [[0, 1, 2], []])


def test_build_rejects_non_reflexive():
    with pytest.raises(InputError):
        build_nef_partition(convex_hull([(0, 0), (1, 0), (0, 1)]), [[0, 1, 2]])


def test_build_rejects_non_nef_part():
    # a single exceptional ray on the del Pezzo surface is not nef
    hexagon = convex_hull(HEX_NABLA)
    nabla = polar_dual(hexagon)  # reflexive hexagon in the other lattice
    with pytest.raises(InputError, match="not nef"):
        build_nef_partition(nabla, [[0], [1, 2, 3, 4, 5]])


def test_minkowski_reconstruction():
    for np_ in (TRIPLE, SPLIT_12_3, TRIVIAL):
        assert minkowski_sum_all(list(np_.section_polytopes)) == np_.delta


# ---------------------------------------------------------------------------
# dualize
# ---------------------------------------------------------------------------

def test_dualize_triple_gives_hexagon():
    dual = dualize(TRIPLE)
    assert dual.delta == convex_hull(HEX_NABLA)
    assert set(dual.fan.rays) == {
        (-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0), (0, 1)}
    # F_k = D_{nu_{2k-1}} + D_{nu_{2k}}: two rays per part
    assert all(len(part) == 2 for part in dual.parts)


def test_dualize_split():
    dual = dualize(SPLIT_12_3)
    expected = minkowski_sum_all([
        convex_hull([(0, 0), (1, 0), (0, 1)]),
        convex_hull([(0, 0), (-1, -1)])])
    assert dual.delta == expected
    assert len(dual.delta.vertices) == 5


def test_dualize_trivial_is_polar():
    dual = dualize(TRIVIAL)
    assert dual.delta == polar_dual(DELTA)
    assert TRIVIAL.sections_hull == DELTA


def test_dual_minkowski_reconstruction():
    dual = dualize(TRIPLE)
    assert minkowski_sum_all(list(dual.section_polytopes)) == dual.delta


@pytest.mark.parametrize("name", sorted(CATALOG_PARTITIONS))
def test_polar_of_nabla_is_read_from_its_facet_normals(name):
    # the identity dualize checks with no hull, against the hull route
    np_ = CATALOG_PARTITIONS[name]
    nabla = np_.dual.delta
    assert polar_dual(nabla) == np_.sections_hull
    assert tuple(n for n, _ in nabla.facets) == polar_dual(nabla).vertices


def test_double_dual_examples():
    assert TRIPLE.dual.dual == TRIPLE
    assert SPLIT_12_3.dual.dual == SPLIT_12_3
    assert TRIVIAL.dual.dual == TRIVIAL


def test_double_dual_random_polygons():
    rng = random.Random(107)
    for _ in range(6):
        poly = random_reflexive_polygon(rng)
        np_ = random_nef_partition(poly, rng)
        assert np_.dual.dual == np_


def test_bb_facet_pairing():
    # min over Delta_i of <m, nu> for nu in nabla_j is -delta_{ij}
    for np_ in (TRIPLE, SPLIT_12_3, TRIVIAL):
        dual = dualize(np_)
        for i, delta_i in enumerate(np_.section_polytopes):
            for j, nabla_j in enumerate(dual.section_polytopes):
                pairing = min(dot(m, nu)
                              for m in delta_i.vertices
                              for nu in nabla_j.vertices)
                assert pairing == (-1 if i == j else 0)


# ---------------------------------------------------------------------------
# Cayley cones and the S-polytope
# ---------------------------------------------------------------------------

def test_cayley_cone_triple():
    cone = cayley_cone(TRIPLE)
    assert cone.ambient_dim == 5
    assert cone.dim == 5
    assert len(cone.generators) == 9


def test_cayley_cone_trivial():
    cone = cayley_cone(TRIVIAL)
    assert cone.generators == tuple(sorted((1,) + v for v in DELTA.vertices))


def test_gorenstein_cone_duality():
    assert cayley_cone_duality_check(TRIPLE)
    assert cayley_cone_duality_check(SPLIT_12_3)
    assert cayley_cone_duality_check(TRIVIAL)


def test_s_polytope_triple():
    s = TRIPLE.cayley_pyramid
    assert s.dim == 5
    assert s.nvolume == 6


def test_s_polytope_volume_identity():
    # vol(S) = vol(nabla polar); for the trivial partition nabla polar is
    # Delta itself, so the common value is 9 (not vol(Delta dual) = 3)
    for np_, expected in ((TRIPLE, 6), (SPLIT_12_3, 7), (TRIVIAL, 9)):
        vol_s = np_.cayley_pyramid.nvolume
        assert vol_s == np_.sections_hull.nvolume == expected


@pytest.mark.parametrize("name", sorted(CATALOG_PARTITIONS))
def test_cayley_pyramid_is_the_lattice_point_s_polytope(name):
    np_ = CATALOG_PARTITIONS[name]
    lam, ref = np_.cayley_pyramid, s_polytope(np_)
    assert lam == ref
    assert (lam.facets, lam.dim, lam.nvolume) == (ref.facets, ref.dim, ref.nvolume)


@pytest.mark.parametrize("name", sorted(CATALOG_PARTITIONS))
def test_cayley_cone_reads_the_cayley_pyramid(name):
    np_ = CATALOG_PARTITIONS[name]
    sigma = make_cone(cayley_points(np_.section_polytopes))
    assert cayley_cone(np_) == sigma
    apex_normals = [n for n, c in np_.cayley_pyramid.facets if c == 0]
    assert tuple(apex_normals) == dual_cone(sigma).generators


def test_s_polytope_degenerate_factor_is_simplex_factor():
    # a single-point group contributes a pyramid step and nothing else:
    # S = Conv(0, e1 x (segment points), e2 x {0}) is a unimodular simplex
    s = convex_hull([(0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 1, 0)])
    assert s.dim == 3
    assert s.nvolume == 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_nef_partition_json_roundtrip():
    text = json.dumps({"delta_vertices": [list(v) for v in TRIPLE.delta.vertices],
                       "parts": [list(p) for p in TRIPLE.parts]})
    again = nef_partition_from_json(text)
    assert again.delta == TRIPLE.delta
    assert again.parts == TRIPLE.parts


def test_nef_partition_json_rejects_garbage():
    with pytest.raises(InputError):
        nef_partition_from_json("[1,2,3]")
    with pytest.raises(InputError):
        nef_partition_from_json('{"delta_vertices": [], "parts": []}')
