"""Euler characteristics, Hodge numbers, mirror duality, node counts,
the toric numbers from a count against the MPCP fan, and the GKZ
parameter count against the Hodge numbers."""
import json
import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NON_UNIMODULAR_4D,
    P2_DELTA,
    P3_DELTA,
    P4_DELTA,
    P4_TWO_PARTS,
    boundary_lattice_count,
    cayley_factors,
    elementary_product,
    nef_partitions,
    polygon_nef_partitions,
    random_lattice_polygon,
    reflexive_polygons,
    smooth_surface_fan,
)
from nefmirror import cli, nefpart
from nefmirror.catalog import CatalogEntry, find_entry, load_catalog, run_entry
from nefmirror.errors import (
    ConsistencyError,
    DomainError,
    InputError,
    SmoothnessError,
)
from nefmirror.invariants import (
    _dk_sum,
    _pyramid_volumes,
    branched_cover_euler,
    cayley_pyramid_volume,
    dk_euler,
    double_cover_invariants,
    surface_node_count,
    verify_mirror_duality,
)
from nefmirror.intlin import dot, matrix_rank
from nefmirror.lattice import (
    cayley_pyramid,
    convex_hull,
    lattice_points,
    polar_dual,
)
from nefmirror.nefpart import (
    build_nef_partition,
    cayley_cone_duality_check,
    dualize,
)
from nefmirror.periods import gkz_data
from nefmirror.toric import (
    ToricDivisor,
    _h_vector,
    anticanonical,
    divisor_from_polytope,
    hodge_numbers_smooth_toric,
    mpcp_fan,
    nef_polytope,
    normal_fan,
)

DELTA = convex_hull(P2_DELTA)
P2_FAN = normal_fan(DELTA)
TRIPLE = build_nef_partition(DELTA, [[2], [1], [0]])
SPLIT = build_nef_partition(DELTA, [[2, 1], [0]])
TRIVIAL = build_nef_partition(DELTA, [[0, 1, 2]])
DELTA3 = convex_hull(P3_DELTA)
P3_12_34 = build_nef_partition(DELTA3, [[3, 2], [1, 0]])
P3_123_4 = build_nef_partition(DELTA3, [[3, 2, 1], [0]])
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True,
                    database=None)


# ---------------------------------------------------------------------------
# Danilov-Khovanskii
# ---------------------------------------------------------------------------

def test_dk_single_line():
    line = ToricDivisor(P2_FAN, (1, 0, 0))
    assert dk_euler(P2_FAN, [line]) == -1  # P^1 minus three points


def test_dk_cubic():
    assert dk_euler(P2_FAN, [anticanonical(P2_FAN)]) == -9
    assert -DELTA.nvolume == -9  # genus 1 with 9 punctures


def test_dk_three_lines_union():
    divisors = [ToricDivisor(P2_FAN, tuple(1 if i == j else 0 for i in range(3)))
                for j in range(3)]
    chi_union = 0
    for size in range(1, 4):
        for subset in combinations(range(3), size):
            chi_union += (-1) ** (size - 1) * dk_euler(
                P2_FAN, [divisors[j] for j in subset])
    assert chi_union == -6  # = -chi(X_dual) for the triple partition


def test_dk_rejects_non_nef():
    hexagon = dualize(TRIPLE).fan
    bad = ToricDivisor(hexagon, (1, 0, 0, 0, 0, 0))
    with pytest.raises(DomainError):
        dk_euler(hexagon, [bad])


def test_dk_single_divisor_equals_minus_volume():
    # chi(C cap T) = -vol(Delta_D) for a nef divisor with 2-dim polytope
    rng = random.Random(55)
    for _ in range(8):
        poly = random_lattice_polygon(rng, spread=2)
        fan = smooth_surface_fan(poly)
        divisor = divisor_from_polytope(fan, poly)
        assert nef_polytope(divisor) == poly
        assert dk_euler(fan, [divisor]) == -poly.nvolume


def test_dk_pick_oracle_random():
    rng = random.Random(56)
    for _ in range(8):
        poly = random_lattice_polygon(rng, spread=2)
        fan = smooth_surface_fan(poly)
        divisor = divisor_from_polytope(fan, poly)
        boundary = boundary_lattice_count(poly)
        interior = len(lattice_points(poly)) - boundary
        assert dk_euler(fan, [divisor]) == 2 - 2 * interior - boundary


def _assert_faces_are_the_pyramids(polytopes, lam):
    """Every vol(Lambda_J) read from lam equals the volume of Lambda_J
    hulled on its own."""
    volumes = _pyramid_volumes(polytopes, lam)
    k = len(polytopes)
    assert set(volumes) == {subset for size in range(1, k + 1)
                            for subset in combinations(range(k), size)}
    for subset, volume in volumes.items():
        assert volume == cayley_pyramid_volume([polytopes[j] for j in subset])


@pytest.mark.parametrize("entry", load_catalog()["entries"]
                         + [CatalogEntry("p4-2parts", P4_TWO_PARTS, {})],
                         ids=lambda entry: entry.name)
def test_pyramid_volumes_are_faces_of_the_cayley_pyramid(entry):
    np_ = entry.build()
    for side in (np_, np_.dual):
        _assert_faces_are_the_pyramids(list(side.section_polytopes),
                                       side.cayley_pyramid)


@SETTINGS
@given(cayley_factors())
def test_pyramid_volumes_of_random_factors(polys):
    # points and segments among the factors make Lambda and some Lambda_J
    # lower-dimensional
    _assert_faces_are_the_pyramids(polys, cayley_pyramid(polys))


@st.composite
def volume_tables(draw):
    """n, r and an integer vol(Lambda_J) for every nonempty J of r indices."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, 5))
    subsets = [subset for size in range(1, r + 1)
               for subset in combinations(range(r), size)]
    values = draw(st.lists(st.integers(-50, 50), min_size=len(subsets),
                           max_size=len(subsets)))
    return n, r, dict(zip(subsets, values))


@SETTINGS
@given(volume_tables())
def test_dk_inclusion_exclusion_cancels_to_the_top_term(table):
    # the Cayley trick: chi of the union of the D_j with the torus reads
    # only vol(Lambda)
    n, r, volumes = table
    union = sum((-1) ** (len(subset) - 1) * _dk_sum(n, volumes, subset)
                for subset in volumes)
    assert union == (-1) ** (n + 1) * volumes[tuple(range(r))]


# ---------------------------------------------------------------------------
# branched covers
# ---------------------------------------------------------------------------

def test_branched_cover_six_lines():
    # six generic lines: chi(union) = 6 * 2 - 15 = -3; the double cover is
    # the singular K3 with 15 nodes, chi = 24 - 15 = 9
    assert branched_cover_euler(3, -3, 2) == 9


def test_branched_cover_identity():
    assert branched_cover_euler(7, -2, 1) == 7


def test_branched_cover_degenerate():
    assert branched_cover_euler(5, 5, 3) == 5


def test_branched_cover_rejects_bad_degree():
    with pytest.raises(InputError):
        branched_cover_euler(1, 1, 0)


# ---------------------------------------------------------------------------
# double-cover invariants
# ---------------------------------------------------------------------------

def test_invariants_p2_triple():
    inv = double_cover_invariants(TRIPLE)
    assert (inv["chi_X"], inv["chi_Xdual"]) == (3, 6)
    assert inv["chi_Y"] == inv["chi_Ydual"] == 9
    assert verify_mirror_duality(TRIPLE)[0]


def test_invariants_p3():
    inv = double_cover_invariants(P3_12_34)
    v = P3_12_34.sections_hull.nvolume
    assert inv["chi_Y"] == 4 - v
    assert inv["chi_Ydual"] == v - 4
    assert verify_mirror_duality(P3_12_34)[0]


def test_invariants_square_r1():
    square = convex_hull([(1, 1), (1, -1), (-1, 1), (-1, -1)])
    np_ = build_nef_partition(square, [[0, 1, 2, 3]])
    inv = double_cover_invariants(np_)
    assert inv["chi_Y"] == inv["chi_X"] + inv["chi_Xdual"]
    assert (inv["chi_X"], inv["chi_Xdual"]) == (4, 8)


def test_invariants_p4_two_parts_in_sheared_coordinates():
    # P^4 under a signed permutation and a shear: pulling each boundary
    # facet in its own chart's lex order triangulated shared ridges in two
    # ways here, and the MPCP fan came out incomplete.
    delta = convex_hull([(-4, 1, 1, -5), (1, 1, 1, 5), (1, 1, -4, 0),
                         (1, -4, 1, 0), (1, 1, 1, 0)])
    np_ = build_nef_partition(delta, [[2, 4], [0, 1, 3]])
    inv = double_cover_invariants(np_)
    assert inv["chi_Y"] == inv["chi_Ydual"] == 216
    assert verify_mirror_duality(np_)[0]


def test_five_part_p4_passes_every_catalog_check():
    # the Cayley pyramid lies in R^9: the S-volume identity, Gorenstein
    # cone duality and the DK sum all read it
    entry = CatalogEntry(
        "p4-5parts",
        {"delta_vertices": [list(v) for v in P4_DELTA],
         "parts": [[0], [1], [2], [3], [4]]},
        {"chi_X": 5, "chi_Xdual": 70, "chi_Y": 75, "chi_Ydual": 75})
    assert run_entry(entry) == []
    np_ = entry.build()
    assert np_.dual.dual == np_


def test_invariants_off_middle_hodge():
    inv = double_cover_invariants(TRIPLE)
    fan, _ = mpcp_fan(polar_dual(DELTA))
    h, _ = hodge_numbers_smooth_toric(fan)
    hodge = inv["hodge"]
    assert hodge["0,0"] == h[0] == 1
    assert hodge["0,1"] == 0
    assert "1,1" not in hodge  # middle (p + q = n) is excluded


def test_invariants_threefold_hodge_diamond():
    for np_ in (P3_12_34, P3_123_4):
        inv = double_cover_invariants(np_)
        dual_inv = double_cover_invariants(dualize(np_))
        assert inv["h11_Y"] == dual_inv["h21_Y"]
        assert inv["h21_Y"] == dual_inv["h11_Y"]
        # chi(Y) = 2 (h11 - h21) for the threefold Hodge diamond
        assert inv["chi_Y"] == 2 * (inv["h11_Y"] - inv["h21_Y"])


def test_invariants_rejects_non_unimodular():
    poly = convex_hull(NON_UNIMODULAR_4D)
    np_ = build_nef_partition(poly, [[0, 1, 2, 3, 4]])
    with pytest.raises(SmoothnessError):
        double_cover_invariants(np_)


# ---------------------------------------------------------------------------
# mirror duality, both routes
# ---------------------------------------------------------------------------

def test_verify_catalog_entries():
    for np_ in (TRIPLE, SPLIT, TRIVIAL, P3_12_34, P3_123_4):
        ok, report = verify_mirror_duality(np_)
        assert ok and report["duality_ok"]
        assert report["chi_Y"] == (-1) ** np_.dim * report["chi_Ydual"]


def test_verify_reports_pyramid_volumes():
    ok, report = verify_mirror_duality(TRIPLE)
    assert ok
    volumes = {tuple(t["J"]): t["volume"] for t in report["dk_terms"]}
    assert volumes[(1,)] == volumes[(2,)] == volumes[(3,)] == 1
    assert volumes[(1, 2)] == volumes[(1, 3)] == volumes[(2, 3)] == 3
    assert volumes[(1, 2, 3)] == 6  # = vol(nabla polar)


def test_verify_fails_when_a_pyramid_volume_is_off(dk_top_term_plus_one):
    # the DK route is the one that can disagree with the closed form; it
    # raises with the sum it read (6 + 1 for the top term) beside chi(Y) = 9
    message = ("DK route chi(Y) == chi(X) + (-1)^n chi(X_dual) failed: "
               "dk=10, closed_form=9")
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        verify_mirror_duality(TRIPLE)


def test_lambda_volume_zero_when_degenerate():
    point = convex_hull([(0, 0)])
    assert cayley_pyramid_volume([point]) == 0


def test_a_broken_ehrhart_identity_is_internal(monkeypatch, capsys):
    # sum h = nvol(polar) is a theorem, so a failure blames the program
    # (exit 1), not the input (exit 2), and names its operands; the dual
    # side's h, (1, 4, 1) made (1, 5, 1), is read first
    count = nefpart.mpcp_h_vector

    def off_by_one(polar):
        h = count(polar)
        return (h[0], h[1] + 1) + h[2:]

    monkeypatch.setattr(nefpart, "mpcp_h_vector", off_by_one)
    message = ("Ehrhart identity sum(h) == nvol(polar) failed: "
               "sum_h=7, nvol_polar=6")
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        double_cover_invariants(find_entry("p2-triple").build())
    assert cli.main(["invariants", "--input", "p2-triple"]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "internal",
                                                    "message": message}


# ---------------------------------------------------------------------------
# node counts
# ---------------------------------------------------------------------------

def test_nodes_triple_is_fifteen():
    # 3 torus-fixed points + 9 toric-generic + 3 generic-generic
    assert surface_node_count(TRIPLE) == 15


def test_nodes_split_is_fourteen():
    # 3 + (6 + 3) + 2
    assert surface_node_count(SPLIT) == 14


def test_nodes_reject_threefold():
    with pytest.raises(InputError):
        surface_node_count(P3_12_34)


def test_nodes_consistent_with_euler():
    # chi(Y) = chi(smooth K3) - #nodes for these branched surfaces
    for np_, nodes in ((TRIPLE, 15), (SPLIT, 14)):
        inv = double_cover_invariants(np_)
        assert surface_node_count(np_) == nodes
        assert inv["chi_Y"] == 24 - nodes


@pytest.mark.parametrize("name, nodes, dual_nodes", [
    ("p2-triple", 15, 15),
    ("p2-(12)(3)", 14, 14),
    ("p2-(3)(12)", 14, 14),
])
def test_nodes_of_both_catalog_sides(name, nodes, dual_nodes):
    # the dual sides have segment sections: their curves have square 0 but
    # meet the toric divisors whose rays are normal to the segment
    np_ = find_entry(name).build()
    for side, expected in ((np_, nodes), (np_.dual, dual_nodes)):
        assert surface_node_count(side) == expected
        assert double_cover_invariants(side)["chi_Y"] == 24 - expected


# ---------------------------------------------------------------------------
# every nef-partition of every reflexive polygon
# ---------------------------------------------------------------------------

def test_sixteen_reflexive_polygons():
    assert len(reflexive_polygons()) == 16


def test_every_polygon_nef_partition_is_dual_with_its_node_count():
    # both sides of every nef-partition, r = 1 to 4: the double dual is the
    # identity, the Gorenstein cones are dual, the two Euler routes agree,
    # vol(S) = vol(nabla polar), and chi(Y) = 24 - #nodes, segment sections
    # included
    sides = 0
    for polygon in reflexive_polygons():
        for np_ in nef_partitions(polygon):
            assert np_.dual.dual == np_
            for side in (np_, np_.dual):
                assert cayley_cone_duality_check(side)
                ok, report = verify_mirror_duality(side)
                assert ok, (side, report)
                # the S-volume identity: the top DK term vol(Lambda) is
                # nvol(Conv(Delta_i))
                top = next(term["volume"] for term in report["dk_terms"]
                           if term["J"] == list(range(1, side.r + 1)))
                assert top == side.sections_hull.nvolume, side
                nodes = surface_node_count(side)
                assert report["chi_Y"] == 24 - nodes, side
                sides += 1
    assert sides == 142


# ---------------------------------------------------------------------------
# the toric numbers from a count, against the MPCP fan
# ---------------------------------------------------------------------------

def _check_count_route(side):
    """The count route's (chi, h) equals the MPCP fan's h-vector and its
    sum, and sum h is the normalized volume of the polar (Ehrhart)."""
    polar = polar_dual(side.delta)
    h = _h_vector(mpcp_fan(polar)[0])
    assert side.toric_numbers == (sum(h), h), side
    assert sum(h) == polar.nvolume, side


def test_count_route_matches_the_mpcp_fan_on_every_polygon_side():
    sides = 0
    for np_ in polygon_nef_partitions():
        for side in (np_, np_.dual):
            _check_count_route(side)
            sides += 1
    assert sides == 142


def moved_nef_partition(np_, g):
    """The nef-partition g . np_ for g in GL(2, Z): the polygon is moved by
    g, and each ray rho of its normal fan by g^{-T}, which keeps <v, rho>,
    so every part keeps its rays."""
    (a, b), (c, d) = g
    sign = a * d - b * c  # +-1, so g^{-1} = sign * adj(g)
    inverse_transpose = ((sign * d, -sign * c), (-sign * b, sign * a))
    polygon = convex_hull([tuple(dot(row, v) for row in g)
                           for v in np_.delta.vertices])
    rays = normal_fan(polygon).rays
    parts = [[rays.index(tuple(dot(row, np_.fan.rays[i])
                               for row in inverse_transpose))
              for i in part] for part in np_.parts]
    return build_nef_partition(polygon, parts)


def _surface_numbers(np_):
    return (np_.toric_numbers, np_.dual.toric_numbers,
            surface_node_count(np_), surface_node_count(np_.dual),
            double_cover_invariants(np_)["chi_Y"])


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1),
                          st.integers(-2, 2), st.booleans()),
                min_size=1, max_size=5))
def test_polygon_numbers_are_gl2z_invariant(ops):
    # the count scans the bounding box of each moved polar, sheared by g,
    # and tests membership there; the toric numbers of both sides, the node
    # count and chi(Y) of every nef-partition of the 16 polygons stay put
    g = elementary_product(2, ops)
    for np_ in polygon_nef_partitions():
        moved = moved_nef_partition(np_, g)
        assert _surface_numbers(moved) == _surface_numbers(np_), (np_, g)


@pytest.mark.parametrize("vertices", [
    P3_DELTA,
    [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
], ids=["P3", "P1xP1xP1"])
def test_count_route_matches_the_mpcp_fan_on_threefolds(vertices):
    # both sides of every nef-partition, r = 1 to 4 for P^3 and 1 to 6 for
    # (P^1)^3
    for np_ in nef_partitions(convex_hull(vertices)):
        for side in (np_, np_.dual):
            _check_count_route(side)


# ---------------------------------------------------------------------------
# the GKZ parameter count against the Hodge numbers
# ---------------------------------------------------------------------------

def gkz_count(side):
    """#columns - rank A of the side's GKZ data."""
    data = gkz_data(side)
    return len(data.A[0]) - matrix_rank(data.A)


def _check_gkz_count(np_):
    """Each nonzero lattice point of Conv(Delta_1, ..., Delta_r), the dual
    side's polar, lies in exactly one Delta_i, and rank A = n + r, so the
    count of each family is h_1 of the other side's MPCP."""
    assert gkz_count(np_) == np_.dual.toric_numbers[1][1], np_
    assert gkz_count(np_.dual) == np_.toric_numbers[1][1], np_


@pytest.mark.parametrize("name", [entry.name for entry in load_catalog()["entries"]])
def test_gkz_count_is_the_other_side_h1_on_the_catalog(name):
    _check_gkz_count(find_entry(name).build())


def test_gkz_count_is_the_other_side_h1_on_every_polygon():
    for np_ in polygon_nef_partitions():
        _check_gkz_count(np_)


@pytest.mark.parametrize("parts, count", [
    ([[0, 1], [2, 3, 4]], 44),
    ([[0], [1], [2], [3], [4]], 16),
], ids=["two-part", "five-part"])
def test_gkz_count_is_the_other_side_h1_on_p4(parts, count):
    np_ = build_nef_partition(convex_hull(P4_DELTA), parts)
    assert gkz_count(np_) == count
    _check_gkz_count(np_)
