"""A table of mutants, one row or more per runtime identity: each mutant,
applied by monkeypatch, makes the program fail that theorem, and the
failure names it.

Every theorem the program checks goes through ``errors.check(identity,
ok, **operands)``, which raises ConsistencyError("<identity> failed:
k=v, ...").  Each row gives a mutant fixture, an input (a catalog entry,
the bundle example or the two-part P^4) and the identity's name.  The
library call on the input must raise with a message that starts with the
name; where a command reaches the site, ``invariants`` or ``dualize``
exits 1 with the name in its stderr JSON, and ``catalog`` exits 4 with a
FAIL line naming it.

Every site has a row.  One row names no command: the pairing-parity
site is reached only by ``catalog``, which dualizes the entry first, and
the dropped section polytope of that row leaves a hull of the Delta_i
that is not reflexive, which fails there first.
"""
import ast
import json
from pathlib import Path

import pytest

from conftest import P4_TWO_PARTS
import nefmirror
from nefmirror import cli, invariants, lattice, nefpart, toric
from nefmirror.catalog import (
    CatalogEntry,
    find_entry,
    load_catalog,
    run_bundle_example,
)
from nefmirror.errors import ConsistencyError
from nefmirror.invariants import surface_node_count, verify_mirror_duality
from nefmirror.nefpart import dualize, nef_partition_from_doc
from nefmirror.toric import ToricDivisor

SOURCE = Path(nefmirror.__file__).parent
P4 = "p4-2parts"
BUNDLE = "p2-bundle-contraction"


def build(spec):
    """The input a row names: the two-part P^4, the bundle example's
    document or a catalog entry's nef-partition."""
    if spec == P4:
        return nef_partition_from_doc(P4_TWO_PARTS)
    if spec == BUNDLE:
        return load_catalog()["bundle_example"]
    return find_entry(spec).build()


def _while_pulling(monkeypatch, change):
    """While ``pulling_triangulation`` runs, each hull it reads is
    ``change(hull)``."""
    hull, pull = lattice.convex_hull, lattice.pulling_triangulation
    pulling = []

    def changed_hull(points):
        return change(hull(points)) if pulling else hull(points)

    def flagged_pull(points):
        pulling.append(True)
        try:
            return pull(points)
        finally:
            pulling.pop()

    monkeypatch.setattr(lattice, "convex_hull", changed_hull)
    monkeypatch.setattr(lattice, "pulling_triangulation", flagged_pull)


def _scaled(divisor, scale):
    return ToricDivisor(divisor.fan, tuple(scale * a for a in divisor.coeffs))


def _with_built(monkeypatch, change):
    """Each catalog entry builds ``change(nef_partition)``."""
    real = CatalogEntry.build
    monkeypatch.setattr(CatalogEntry, "build", lambda entry: change(real(entry)))


# ---------------------------------------------------------------------------
# mutants
# ---------------------------------------------------------------------------

@pytest.fixture
def pulled_cells_flattened(monkeypatch):
    # each cell reports one dimension less than it spans
    _while_pulling(monkeypatch, lambda h: h._replace(dim=h.dim - 1))


@pytest.fixture
def pulled_cells_grown(monkeypatch):
    # each facet of a cell moves out by one lattice step, so a pulled point
    # lies on none of them and cones that are no simplices remain
    _while_pulling(monkeypatch, lambda h: h._replace(
        facets=tuple((n, c + 1) for n, c in h.facets)))


@pytest.fixture
def pulled_cells_lose_a_facet(monkeypatch):
    # the cones over a cell's last facet are never made
    _while_pulling(monkeypatch, lambda h: h._replace(facets=h.facets[:-1]))


@pytest.fixture
def completeness_says_no(monkeypatch):
    monkeypatch.setattr(toric, "is_complete", lambda fan: False)


@pytest.fixture
def fan_h_vector_is_a_point(monkeypatch):
    monkeypatch.setattr(toric, "_h_vector", lambda fan: (1, 0, 0, 0, 0))


@pytest.fixture
def counted_h1_plus_one(monkeypatch):
    # the dual side's h, (1, 4, 1), made (1, 5, 1), is read first
    count = nefpart.mpcp_h_vector

    def off_by_one(polar):
        h = count(polar)
        return (h[0], h[1] + 1) + h[2:]

    monkeypatch.setattr(nefpart, "mpcp_h_vector", off_by_one)


@pytest.fixture
def contracted_rays_negated(monkeypatch):
    fan_of = toric.normal_fan

    def negated(polytope):
        fan = fan_of(polytope)
        return fan._replace(
            rays=tuple(tuple(-x for x in ray) for ray in fan.rays))

    monkeypatch.setattr(toric, "normal_fan", negated)


@pytest.fixture
def contraction_polytope_doubled(monkeypatch):
    # 2 conv(m_sigma) has the normal fan of conv(m_sigma), but the
    # m_sigma are not its vertices
    hull = toric.convex_hull
    monkeypatch.setattr(toric, "convex_hull", lambda points: hull(
        [tuple(2 * x for x in p) for p in points]))


@pytest.fixture
def minkowski_drops_a_summand(monkeypatch):
    test = nefpart.is_minkowski_sum
    monkeypatch.setattr(nefpart, "is_minkowski_sum",
                        lambda polys, polytope: test(polys[:-1], polytope))


@pytest.fixture
def rays_sought_in_delta_1_twice(monkeypatch):
    assign = nefpart._assign_rays_to_parts
    monkeypatch.setattr(nefpart, "_assign_rays_to_parts",
                        lambda rays, polys: assign(rays, polys + polys[:1]))


@pytest.fixture
def nabla_parts_doubled(monkeypatch):
    # nabla_k = Conv({0} u 2 I_k): they sum to 2 nabla, not to the polar of
    # Conv(Delta_1, ..., Delta_r)
    hull = nefpart.convex_hull

    def doubled(points):
        if any(points[0]):
            return hull(points)
        return hull(points[:1] + [tuple(2 * x for x in p) for p in points[1:]])

    monkeypatch.setattr(nefpart, "convex_hull", doubled)


@pytest.fixture
def sections_hull_doubled(monkeypatch):
    # 2 Conv(Delta_1, ..., Delta_r) has its facets at lattice distance 2
    hull = nefpart.NefPartition.sections_hull.func
    monkeypatch.setattr(nefpart.NefPartition, "sections_hull", property(
        lambda np_: lattice.convex_hull([tuple(2 * x for x in v)
                                         for v in hull(np_).vertices])))


@pytest.fixture
def sections_hull_is_delta(monkeypatch):
    # the kept hull of the Delta_i stands in for one that is not nabla's
    # polar
    monkeypatch.setattr(nefpart.NefPartition, "sections_hull",
                        property(lambda np_: np_.delta))


@pytest.fixture
def dual_part_tested_doubled(monkeypatch):
    # 2 F_k is nef, with section polytope 2 nabla_k
    test = nefpart.is_nef_polytope
    monkeypatch.setattr(nefpart, "is_nef_polytope",
                        lambda divisor, polytope: test(_scaled(divisor, 2),
                                                       polytope))


@pytest.fixture
def dual_part_keeps_one_ray(monkeypatch):
    # one ray of each dual part of the triple, a (-1)-curve on the del
    # Pezzo surface of nabla's normal fan, is not nef; the primal parts of
    # the triple are single rays already
    part_divisor = nefpart.part_divisor
    monkeypatch.setattr(nefpart, "part_divisor",
                        lambda fan, part: part_divisor(fan, part[:1]))


@pytest.fixture
def pulled_back_doubled(monkeypatch):
    # 2 Delta_i is nef on the MPCP fan, with section polytope 2 Delta_i
    pull = invariants.divisor_from_polytope
    monkeypatch.setattr(invariants, "divisor_from_polytope",
                        lambda fan, poly: _scaled(pull(fan, poly), 2))


@pytest.fixture
def pulled_back_negated(monkeypatch):
    # minus a nonzero Delta_i's divisor is not nef
    pull = invariants.divisor_from_polytope
    monkeypatch.setattr(invariants, "divisor_from_polytope",
                        lambda fan, poly: _scaled(pull(fan, poly), -1))


@pytest.fixture
def section_polytope_dropped(monkeypatch):
    # nvol(Delta) - sum nvol(Delta_i) becomes 9 - 2, odd
    _with_built(monkeypatch, lambda np_: nefpart.NefPartition(
        np_.delta, np_.fan, np_.parts, np_.section_polytopes[:2]))


@pytest.fixture
def primal_chi_plus_one(monkeypatch):
    # chi(X) + 1 on the primal side only: both Euler routes move alike
    def plus_one(np_):
        chi, h = np_.toric_numbers
        vars(np_)["toric_numbers"] = (chi + 1, h)
        return np_

    _with_built(monkeypatch, plus_one)


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

def _dual_numbers(np_):
    return np_.dual.toric_numbers


IDENTITIES = [
    # lattice.pulling_triangulation
    ("pulled_cells_flattened", P4, _dual_numbers, "invariants",
     "pulled cell is full-dimensional"),
    ("pulled_cells_grown", P4, _dual_numbers, "invariants",
     "pulling ends in simplices"),
    # toric.mpcp_fan
    ("completeness_says_no", P4, _dual_numbers, "invariants",
     "smooth MPCP fan is complete"),
    ("pulled_cells_lose_a_facet", P4, _dual_numbers, "invariants",
     "smooth MPCP fan is complete"),
    # toric.semiample_contraction
    ("contracted_rays_negated", BUNDLE, run_bundle_example, "catalog",
     "contracted fan rays <= fan rays"),
    ("contraction_polytope_doubled", BUNDLE, run_bundle_example,
     "catalog", "every Cartier datum is a vertex of conv(m_sigma)"),
    # nefpart
    ("counted_h1_plus_one", "p2-triple", _dual_numbers, "invariants",
     "Ehrhart identity sum(h) == nvol(polar)"),
    ("fan_h_vector_is_a_point", P4, _dual_numbers, "invariants",
     "Ehrhart identity sum(h) == nvol(polar)"),
    ("minkowski_drops_a_summand", "p2-triple", lambda np_: np_, "invariants",
     "Minkowski sum Delta_1 + ... + Delta_r == Delta"),
    ("rays_sought_in_delta_1_twice", "p2-triple", dualize, "dualize",
     "each ray of nabla's fan lies in exactly one Delta_k"),
    ("sections_hull_doubled", "p2-triple", dualize, "dualize",
     "Conv(Delta_1, ..., Delta_r) is reflexive"),
    ("nabla_parts_doubled", "p2-triple", dualize, "dualize",
     "polar identity polar(nabla) == Conv(Delta_1, ..., Delta_r)"),
    ("sections_hull_is_delta", "p2-triple", dualize, "dualize",
     "polar identity polar(nabla) == Conv(Delta_1, ..., Delta_r)"),
    ("dual_part_tested_doubled", "p2-triple", dualize, "dualize",
     "dual part F_k is nef with nef_polytope(F_k) == nabla_k"),
    ("dual_part_keeps_one_ray", "p2-triple", dualize, "dualize",
     "dual part F_k is nef with nef_polytope(F_k) == nabla_k"),
    # invariants
    ("cayley_cone_drops_last_generator", "p2-triple", verify_mirror_duality,
     "invariants",
     "Gorenstein cone duality dual_cone(sigma_Delta) == sigma_nabla"),
    ("pulled_back_doubled", P4, verify_mirror_duality, "invariants",
     "pulled-back Delta_i is nef with nef_polytope == Delta_i"),
    ("pulled_back_negated", P4, verify_mirror_duality, "invariants",
     "pulled-back Delta_i is nef with nef_polytope == Delta_i"),
    ("dk_top_term_plus_one", "p2-triple", verify_mirror_duality, "invariants",
     "DK route chi(Y) == chi(X) + (-1)^n chi(X_dual)"),
    ("section_polytope_dropped", "p2-triple", surface_node_count, None,
     "pairing sum nvol(Delta) - sum nvol(Delta_i) == "
     "2 sum_{i<j} D_i.D_j is even"),
    ("primal_chi_plus_one", "p2-triple", surface_node_count, "catalog",
     "K3 node count chi(Y) + nodes == 24"),
]


@pytest.mark.parametrize("mutant, spec, library, command, name", IDENTITIES,
                         ids=[row[0] for row in IDENTITIES])
def test_identity_fires_by_name(request, capsys, tmp_path, mutant, spec,
                                library, command, name):
    request.getfixturevalue(mutant)
    with pytest.raises(ConsistencyError) as info:
        library(build(spec))
    assert str(info.value).startswith(f"{name} failed")
    if command is None:
        return
    if command == "catalog":
        out = tmp_path / "catalog.txt"
        assert cli.main(["catalog", "--output", str(out)]) == cli.EXIT_GOLDEN
        assert f"FAIL {spec}\n    ConsistencyError: {name} failed" \
            in out.read_text()
        return
    source = spec
    if spec == P4:
        source = tmp_path / "p4.json"
        source.write_text(json.dumps(P4_TWO_PARTS), encoding="utf-8")
    assert cli.main([command, "--input", str(source)]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "internal"
    assert err["message"].startswith(f"{name} failed")


def _parsed_sources():
    for path in sorted(SOURCE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_every_identity_has_a_row():
    # the names that the modules importing errors.check pass to it are
    # the names of the table (catalog's bundle example has a check of its
    # own, for labels of its input)
    names = set()
    for _, tree in _parsed_sources():
        if not any(isinstance(node, ast.ImportFrom) and node.module == "errors"
                   and "check" in [alias.name for alias in node.names]
                   for node in tree.body):
            continue
        names.update(ast.literal_eval(node.args[0]) for node in ast.walk(tree)
                     if isinstance(node, ast.Call)
                     and getattr(node.func, "id", None) == "check")
    assert names == {row[-1] for row in IDENTITIES}


def test_consistency_error_is_raised_only_by_check():
    # one way to fail a theorem: every raise of ConsistencyError in the
    # package is the one in errors.check
    raises = set()
    allowed = set()
    for name, tree in _parsed_sources():
        raises.update((name, node.lineno) for node in ast.walk(tree)
                      if isinstance(node, ast.Raise) and node.exc is not None
                      and "ConsistencyError" in ast.unparse(node.exc))
        for func in ast.walk(tree):
            if name == "errors.py" and isinstance(func, ast.FunctionDef) \
                    and func.name == "check":
                allowed.update((name, node.lineno) for node in ast.walk(func)
                               if isinstance(node, ast.Raise))
    assert raises == allowed and len(allowed) == 1
