"""Each nef-partition dualizes once and builds each MPCP fan once,
``dualize`` builds nabla's normal fan and Minkowski sum once, each
MPCP side builds its polar dual once, each catalog check or
``invariants`` command computes the double-cover invariants once, a
catalog check hulls the nef-partition's Cayley pyramid once, a catalog
run tests each fan's completeness once, a hull finds the affine basis
of each point set once, and each section polytope is read from Cartier
data solved once per divisor.

The counters wrap the functions at every ``nefmirror.*`` module attribute
bound to them: ``from .x import f`` copies the binding, so wrapping the
defining module alone would miss calls.
"""
import sys
from collections import Counter

import pytest

from conftest import cayley_points
from nefmirror import cli, lattice, nefpart, toric
from nefmirror.catalog import (
    CatalogEntry,
    catalog_run,
    find_entry,
    load_catalog,
    run_entry,
)
from nefmirror.intlin import canon_vec
from nefmirror.invariants import double_cover_invariants, surface_node_count
from nefmirror.nefpart import cayley_cone_duality_check, dualize
from nefmirror.periods import gkz_data
from nefmirror.toric import (
    ToricDivisor,
    bundle_nef_divisor,
    cartier_data,
    divisor_polytope,
    is_complete,
    mpcp_fan,
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
    return count_calls(monkeypatch, (dualize, mpcp_fan))


@pytest.fixture
def invariant_calls(monkeypatch):
    return count_calls(monkeypatch, (double_cover_invariants,))


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_run_entry_dualizes_once_and_builds_each_side_once(calls, name):
    assert run_entry(find_entry(name)) == []
    assert calls == {"dualize": 1, "mpcp_fan": 2}


def test_cli_invariants_computes_each_side_once(calls, tmp_path):
    out = tmp_path / "inv.json"
    argv = ["invariants", "--input", "p3-(12)(34)", "--output", str(out)]
    assert cli.main(argv) == 0
    assert calls == {"dualize": 1, "mpcp_fan": 2}


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
    # the cone-count check reads the volume of the hull mpcp_fan built
    np_ = find_entry(name).build()
    dual_side = np_.dual
    counts = count_calls(monkeypatch, (lattice.polar_dual,))
    np_.mpcp
    assert counts == {"polar_dual": 1}
    dual_side.mpcp
    assert counts == {"polar_dual": 2}


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_run_entry_computes_invariants_once(invariant_calls, name):
    assert run_entry(find_entry(name)) == []
    assert invariant_calls == {"double_cover_invariants": 1}


def test_cli_invariants_computes_invariants_once(invariant_calls, tmp_path):
    out = tmp_path / "inv.json"
    argv = ["invariants", "--input", "p3-(12)(34)", "--output", str(out)]
    assert cli.main(argv) == 0
    assert invariant_calls == {"double_cover_invariants": 1}


def test_run_entry_hulls_the_cayley_pyramid_once(monkeypatch):
    # S, the Gorenstein cone sigma_Delta and the top DK term all read the
    # hull of {0} u e_i x vertices(Delta_i)
    entry = find_entry("p2-triple")
    np_ = entry.build()
    lam_points = {(0,) * (np_.r + np_.dim), *cayley_points(np_.section_polytopes)}
    hulled = []
    convex_hull = lattice.convex_hull

    def recording(points, ambient_dim=None):
        hulled.append({canon_vec(p) for p in points})
        return convex_hull(points, ambient_dim)

    replace_everywhere(monkeypatch, {id(convex_hull): recording})
    assert run_entry(entry) == []
    assert hulled.count(lam_points) == 1


def test_catalog_run_tests_each_fan_complete_once(monkeypatch):
    # the MPCP fans, the bundle fan, its base and its contraction: the node
    # count and the Fano test reuse the completeness already established
    fans = []

    def recording(fan):
        fans.append(fan)
        return is_complete(fan)

    replace_everywhere(monkeypatch, {id(is_complete): recording})
    assert catalog_run()[0]
    assert len(fans) == len({id(fan) for fan in fans}) == 15


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_run_entry_reads_sections_from_cartier_data(monkeypatch, name):
    # every fan of a catalog entry is complete, so each section polytope,
    # the pulled-back ones included, is conv(m_sigma): no divisor_polytope
    # call, and no hull of a fan's rays to test boundedness
    counts = count_calls(monkeypatch, (divisor_polytope,))
    fans = []
    ray_hulls = []
    make_fan = toric.make_fan
    convex_hull = lattice.convex_hull

    def recording_fan(*args, **kwargs):
        fans.append(make_fan(*args, **kwargs))
        return fans[-1]

    def recording_hull(points, ambient_dim=None):
        ray_hulls.extend(fan for fan in fans if points is fan.rays)
        return convex_hull(points, ambient_dim)

    replace_everywhere(monkeypatch, {id(make_fan): recording_fan,
                                     id(convex_hull): recording_hull})
    assert run_entry(find_entry(name)) == []
    assert fans and not counts and not ray_hulls


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
