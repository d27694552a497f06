"""Each nef-partition dualizes once and reads each side's toric numbers
once, from the lattice-point count of its polar in dimension n <= 3,
where a catalog run builds no MPCP fan and no boundary triangulation,
and from one MPCP fan over that polar above; only the primal side hulls
its polar, ``dualize`` builds nabla's normal fan and Minkowski sum once,
each MPCP side tests its smoothness once, each catalog check or
``invariants`` command computes the double-cover invariants once, a
non-smooth pair is refused by the dual side before the primal side
builds its MPCP fan, a catalog check hulls the nef-partition's Cayley
pyramid once, a catalog run tests each fan's completeness once and, its
fans all simplicial, builds no ``cone_hrep`` hull for it, a hull finds
the affine basis of each point set once and sums its volume only at the
first read, each section polytope is read from Cartier data solved once
per divisor, ``dualize`` checks its identities with neither
``polar_dual`` nor ``nef_polytope``, the Gorenstein cone duality check
hulls no Cayley pyramid of the dual side, a maximal boundary
triangulation pulls each distinct facet configuration once and takes no
determinant, serializing operators renders each operator once and
builds no term, the text of a tautological system builds no box
operator, and GKZ data computes its kernel basis only when read, and
then once.

The counters wrap the functions at every ``nefmirror.*`` module attribute
bound to them: ``from .x import f`` copies the binding, so wrapping the
defining module alone would miss calls.
"""
import sys
from collections import Counter

import pytest

from conftest import NON_UNIMODULAR_4D, cayley_points, taut_operators
from nefmirror import cli, intlin, lattice, nefpart, periods, toric
from nefmirror.catalog import (
    CatalogEntry,
    catalog_run,
    find_entry,
    load_catalog,
    run_entry,
)
from nefmirror.errors import SmoothnessError
from nefmirror.invariants import double_cover_invariants, surface_node_count
from nefmirror.nefpart import (
    build_nef_partition,
    cayley_cone_duality_check,
    dualize,
)
from nefmirror.periods import gkz_data, serialize_operator
from nefmirror.toric import (
    ToricDivisor,
    bundle_nef_divisor,
    cartier_data,
    is_complete,
    mpcp_fan,
    mpcp_h_vector,
    normal_fan,
    projective_bundle_fan,
    semiample_contraction,
)

ENTRY_NAMES = [entry.name for entry in load_catalog()["entries"]]


def replace_everywhere(monkeypatch, wrappers):
    """Rebind every ``nefmirror.*`` module attribute bound to a function
    ``fn`` to ``wrappers[id(fn)]``."""
    for name, module in list(sys.modules.items()):
        if name == "nefmirror" or name.startswith("nefmirror."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[id(value)])


def count_calls(monkeypatch, functions):
    counts = Counter()

    def counting(fn):
        def wrapper(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    replace_everywhere(monkeypatch, {id(fn): counting(fn) for fn in functions})
    return counts


@pytest.fixture
def calls(monkeypatch):
    return count_calls(monkeypatch, (dualize, mpcp_fan, mpcp_h_vector))


@pytest.fixture
def invariant_calls(monkeypatch):
    return count_calls(monkeypatch, (double_cover_invariants,))


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_run_entry_dualizes_once_and_builds_each_side_once(calls, name):
    # every catalog entry has n <= 3: each side's h-vector is one count
    assert run_entry(find_entry(name)) == []
    assert calls == {"dualize": 1, "mpcp_h_vector": 2}


def test_cli_invariants_computes_each_side_once(calls, p4_two_parts_file,
                                                tmp_path):
    # in dimension 4 each side's h-vector is its MPCP fan's
    out = tmp_path / "inv.json"
    argv = ["invariants", "--input", p4_two_parts_file, "--output", str(out)]
    assert cli.main(argv) == 0
    assert calls == {"dualize": 1, "mpcp_fan": 2}


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_toric_numbers_hull_only_the_primal_polar(monkeypatch, name):
    # the count builds no hull, and the Ehrhart identity reads the dual
    # side's polar from the sections hull dualize compared it with
    np_ = find_entry(name).build()
    dual = np_.dual
    hulled = recorded_hulls(monkeypatch)
    dual.toric_numbers
    assert hulled == []
    np_.toric_numbers
    assert hulled == [set(np_.polar.vertices)]


def test_catalog_run_builds_no_mpcp_fan(monkeypatch):
    counts = count_calls(monkeypatch, (mpcp_fan,
                                       lattice.maximal_boundary_triangulation))
    assert catalog_run()[0]
    assert not counts


def test_cone_duality_and_primal_gkz_build_no_mpcp_fan(calls):
    np_ = find_entry("p2-triple").build()
    assert cayley_cone_duality_check(np_)
    gkz_data(np_)
    assert calls == {"dualize": 1}


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_dualize_builds_the_dual_once(monkeypatch, name):
    # nabla's normal fan and the Minkowski sum of the nabla_k are built
    # once, and the dual NefPartition is assembled from them rather than
    # rebuilt by build_nef_partition
    np_ = find_entry(name).build()
    counts = count_calls(monkeypatch, (normal_fan, lattice.minkowski_sum_all,
                                       nefpart.build_nef_partition))
    dualize(np_)
    assert counts == {"normal_fan": 1, "minkowski_sum_all": 1}


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_mpcp_builds_the_polar_dual_once(monkeypatch, name):
    # mpcp_fan triangulates the polar the side holds: the primal side hulls
    # it once, and the dual side reads the sections hull dualize compared
    # it with
    np_ = find_entry(name).build()
    dual_side = np_.dual
    counts = count_calls(monkeypatch, (lattice.polar_dual,))
    np_.mpcp
    assert counts == {"polar_dual": 1}
    dual_side.mpcp
    assert counts == {"polar_dual": 1}


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_mpcp_decides_smoothness_once_per_side(monkeypatch, name):
    # mpcp_fan tests its fan with is_smooth, and the h-vector is read
    # without testing it again through hodge_numbers_smooth_toric
    np_ = find_entry(name).build()
    dual_side = np_.dual
    counts = count_calls(monkeypatch, (toric.is_smooth,
                                       toric.hodge_numbers_smooth_toric))
    np_.mpcp
    assert counts == {"is_smooth": 1}
    dual_side.mpcp
    assert counts == {"is_smooth": 2}


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_run_entry_computes_invariants_once(invariant_calls, name):
    assert run_entry(find_entry(name)) == []
    assert invariant_calls == {"double_cover_invariants": 1}


def test_cli_invariants_computes_invariants_once(invariant_calls, tmp_path):
    out = tmp_path / "inv.json"
    argv = ["invariants", "--input", "p3-(12)(34)", "--output", str(out)]
    assert cli.main(argv) == 0
    assert invariant_calls == {"double_cover_invariants": 1}


def recorded_hulls(monkeypatch):
    """A list that gets the point set of every hull built."""
    hulled = []
    convex_hull = lattice.convex_hull

    def recording(points):
        hulled.append({tuple(p) for p in points})
        return convex_hull(points)

    replace_everywhere(monkeypatch, {id(convex_hull): recording})
    return hulled


def test_run_entry_hulls_the_cayley_pyramid_once(monkeypatch):
    # S, the Gorenstein cone sigma_Delta and the top DK term all read the
    # hull of {0} u e_i x vertices(Delta_i)
    entry = find_entry("p2-triple")
    np_ = entry.build()
    lam_points = {(0,) * (np_.r + np_.dim), *cayley_points(np_.section_polytopes)}
    hulled = recorded_hulls(monkeypatch)
    assert run_entry(entry) == []
    assert hulled.count(lam_points) == 1


def test_non_smooth_pair_is_refused_before_the_primal_side(monkeypatch):
    # the dual side's MPCP fan is read first and refuses after a few hulls;
    # the primal side's pulling triangulation would build 520
    np_ = build_nef_partition(lattice.convex_hull(NON_UNIMODULAR_4D),
                              [[0, 1, 2, 3, 4]])
    hulled = recorded_hulls(monkeypatch)
    with pytest.raises(SmoothnessError):
        double_cover_invariants(np_)
    assert len(hulled) <= 3


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_dualize_checks_its_identities_with_no_hull_of_their_own(monkeypatch,
                                                                name):
    # the polar identity reads nabla's facet normals, and each dual section
    # is tested against nabla_k from its Cartier data
    np_ = find_entry(name).build()
    counts = count_calls(monkeypatch, (lattice.polar_dual, toric.nef_polytope))
    dualize(np_)
    assert not counts


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_cone_duality_hulls_no_cayley_pyramid_of_the_dual(monkeypatch, name):
    # sigma_nabla's generators are read from the nabla_k, so the one hull
    # is this side's Cayley pyramid, whose apex facets give dual_cone
    np_ = find_entry(name).build()
    dual = np_.dual
    hulled = recorded_hulls(monkeypatch)
    assert cayley_cone_duality_check(np_)
    assert hulled == [{(0,) * (np_.r + np_.dim),
                       *cayley_points(np_.section_polytopes)}]
    assert "cayley_pyramid" not in vars(dual)


def facet_configurations(polytope):
    """The chart points of each facet's boundary lattice points, as
    ``maximal_boundary_triangulation`` pulls them."""
    zero = (0,) * polytope.ambient_dim
    boundary = [p for p in lattice.lattice_points(polytope) if p != zero]
    configurations = []
    for normal, offset in polytope.facets:
        points = [p for p in boundary if intlin.dot(p, normal) == -offset]
        basis = lattice._affine_basis_indices(points)
        configurations.append(tuple(lattice._chart(points, basis)[2]))
    return configurations


@pytest.mark.parametrize("vertices", [
    # the cube's six facets are one 3 x 3 grid in their charts
    [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
    # the polar of the P^3 simplex: four facets, three configurations
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
])
def test_boundary_triangulation_pulls_each_configuration_once(monkeypatch,
                                                              vertices):
    # and takes no determinant: smoothness is decided on the MPCP fan
    polytope = lattice.convex_hull(vertices)
    configurations = facet_configurations(polytope)
    assert len(set(configurations)) < len(configurations)
    expected = lattice.maximal_boundary_triangulation(polytope)
    counts = count_calls(monkeypatch, (lattice.pulling_triangulation,
                                       intlin.det))
    assert lattice.maximal_boundary_triangulation(polytope) == expected
    assert counts == {"pulling_triangulation": len(set(configurations))}


def test_catalog_run_tests_each_fan_complete_once(monkeypatch):
    # the bundle fan, its base and its contraction (the entries build no
    # MPCP fan): the Fano test reuses the completeness already established
    fans = []

    def recording(fan):
        fans.append(fan)
        return is_complete(fan)

    replace_everywhere(monkeypatch, {id(is_complete): recording})
    assert catalog_run()[0]
    assert len(fans) == len({id(fan) for fan in fans}) == 3


def test_catalog_run_builds_no_cone_hrep(monkeypatch):
    # every fan of the catalog run is simplicial, so each cone's facet
    # normals come from one scaled inverse of its rays
    counts = count_calls(monkeypatch, (lattice.cone_hrep,))
    assert catalog_run()[0]
    assert not counts


@pytest.mark.parametrize("points", [
    [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)],
    # lower-dimensional: the volume is summed in the chart of the span
    [(0, 0, 1), (2, 0, 1), (0, 2, 1), (1, 1, 1)],
])
def test_hull_volume_is_summed_once_on_first_read(monkeypatch, points):
    counts = count_calls(monkeypatch, (intlin.det,))
    hull = lattice.convex_hull(points)
    assert not counts
    volume = hull.nvolume
    summed = counts["det"]
    assert summed and hull.nvolume == volume and counts["det"] == summed


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_run_entry_reads_sections_from_cartier_data(monkeypatch, name):
    # every fan of a catalog entry is complete, so each section polytope,
    # the pulled-back ones included, is conv(m_sigma): no hull of a fan's
    # rays to test boundedness
    fans = []
    ray_hulls = []
    make_fan = toric.make_fan
    convex_hull = lattice.convex_hull

    def recording_fan(*args, **kwargs):
        fans.append(make_fan(*args, **kwargs))
        return fans[-1]

    def recording_hull(points):
        ray_hulls.extend(fan for fan in fans if points is fan.rays)
        return convex_hull(points)

    replace_everywhere(monkeypatch, {id(make_fan): recording_fan,
                                     id(convex_hull): recording_hull})
    assert run_entry(find_entry(name)) == []
    assert fans and not ray_hulls


def test_run_entry_counts_nodes_only_when_expected(monkeypatch):
    counts = count_calls(monkeypatch, (surface_node_count,))
    entry = find_entry("p2-triple")
    assert run_entry(CatalogEntry(entry.name, entry.nef_partition_doc, {})) == []
    assert not counts
    assert run_entry(entry) == []
    assert counts == {"surface_node_count": 1}


def test_semiample_contraction_solves_the_cones_once(monkeypatch):
    doc = load_catalog()["bundle_example"]
    delta = lattice.convex_hull([tuple(v) for v in doc["delta_vertices"]])
    base = normal_fan(delta)
    bundle_div = ToricDivisor(base, tuple(doc["bundle_coeffs"]))
    bundle_fan = projective_bundle_fan(base, bundle_div)
    h_div = bundle_nef_divisor(bundle_fan, base, bundle_div)
    counts = count_calls(monkeypatch, (cartier_data,))
    semiample_contraction(bundle_fan, h_div)
    assert counts == {"cartier_data": 1}


@pytest.mark.parametrize("points, point_sets", [
    ([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)], 1),
    # a lower-dimensional hull also finds the basis of its chart points
    ([(0, 0, 1), (2, 0, 1), (0, 2, 1), (1, 1, 1)], 2),
])
def test_convex_hull_finds_each_affine_basis_once(monkeypatch, points,
                                                  point_sets):
    counts = count_calls(monkeypatch, (lattice._affine_basis_indices,))
    lattice.convex_hull(points)
    assert counts == {"_affine_basis_indices": point_sets}


def record_inits(monkeypatch, cls):
    """A list that gets every instance of ``cls`` as its ``__init__``
    returns."""
    built = []
    init = cls.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(cls, "__init__", recording)
    return built


def test_serialize_operators_renders_each_operator_once(monkeypatch):
    # the tracer's periods.serialize_operator.calls stays one per operator,
    # and no term is built while serializing
    built = record_inits(monkeypatch, periods.DiffTerm)
    ops = taut_operators([2, 3], 2)
    assert built
    built.clear()
    counts = count_calls(monkeypatch, (serialize_operator,))
    periods.serialize_operators(ops)
    assert counts == {"serialize_operator": len(ops)}
    assert not built


def test_taut_text_builds_no_box_operator(monkeypatch):
    # only the Euler and symmetry operators are built, one per bundle and
    # one per ordered pair of homogeneous coordinates; the box lines, one
    # per two pairs of a bucket, are written from their labels
    variables = periods.coefficient_variables([2, 3], 2)
    n_box = sum(len(pairs) * (len(pairs) - 1) // 2
                for pairs in periods._box_buckets(variables))
    operators = record_inits(monkeypatch, periods.DiffOperator)
    text = "".join(periods.taut_text([2, 3], 2))
    assert n_box > 0
    assert text.count("\n") == 2 + 3 ** 2 + n_box
    assert len(operators) == 2 + 3 ** 2


def test_gkz_kernel_basis_is_computed_once_on_first_read(monkeypatch,
                                                         tmp_path):
    counts = count_calls(monkeypatch, (intlin.lattice_split,))
    argv = ["gkz", "--input", "p2-(3)(12)", "--side", "primal",
            "--output", str(tmp_path / "gkz.json")]
    assert cli.main(argv) == 0
    assert counts == {}
    data = gkz_data(find_entry("p2-(3)(12)").build())
    first = data.kernel_basis
    assert data.kernel_basis is first
    assert counts == {"lattice_split": 1}
