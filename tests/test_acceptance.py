"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are exact (integer equality) throughout; the stated
runtime bounds are asserted with time.perf_counter around the computation.
"""
import random
import time

from conftest import (
    boundary_lattice_count,
    random_nef_partition,
    random_reflexive_polygon,
    random_lattice_polygon,
    s_polytope,
    smooth_surface_fan,
)
from nefmirror.catalog import (
    golden_taut_operators,
    load_catalog,
    run_bundle_example,
)
from nefmirror.invariants import (
    dk_euler,
    double_cover_invariants,
    surface_node_count,
    verify_mirror_duality,
)
from nefmirror.lattice import (
    dual_cone,
    lattice_points,
    make_cone,
    normalized_volume,
)
from nefmirror.nefpart import cayley_cone, dualize
from nefmirror.periods import (
    gkz_data,
    gkz_equal_up_to_group_permutation,
    operators_contain,
    taut_system,
)
from nefmirror.toric import (
    divisor_from_polytope,
    hodge_numbers_smooth_toric,
    mpcp_fan,
)

CATALOG = load_catalog()
ENTRIES = {entry.name: entry for entry in CATALOG["entries"]}
PARTITIONS = {name: entry.build() for name, entry in ENTRIES.items()}


def _report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_dual_nef_partition_reproduction():
    start = time.perf_counter()
    dual = dualize(PARTITIONS["p2-triple"])
    elapsed = time.perf_counter() - start
    assert set(dual.fan.rays) == {
        (-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0), (0, 1)}
    assert set(dual.delta.vertices) == {
        (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)}
    assert elapsed < 1.0
    _report(1, f"dual fan rays and nabla vertices reproduced "
               f"({elapsed:.3f}s)")


def test_criterion_02_gkz_golden_matrices():
    start = time.perf_counter()
    dual_data = gkz_data(PARTITIONS["p2-triple"].dual)
    primal_data = gkz_data(PARTITIONS["p2-(3)(12)"])
    elapsed = time.perf_counter() - start
    dual_golden = ENTRIES["p2-triple"].expected["gkz"]["dual"]
    primal_golden = ENTRIES["p2-(3)(12)"].expected["gkz"]["primal"]
    assert dual_data.shape == (5, 6)
    assert gkz_equal_up_to_group_permutation(
        dual_data, dual_golden["A"], dual_golden["beta"])
    assert primal_data.shape == (4, 9)
    assert gkz_equal_up_to_group_permutation(
        primal_data, primal_golden["A"], primal_golden["beta"])
    assert elapsed < 1.0
    _report(2, f"5x6 and 4x9 GKZ matrices match the stored goldens "
               f"({elapsed:.3f}s)")


def test_criterion_03_taut_golden_operators():
    start = time.perf_counter()
    generated = taut_system([1, 1, 1, 1, 2], 2)
    elapsed = time.perf_counter() - start
    golden = golden_taut_operators()
    euler, symmetry, box = golden[:5], golden[5:14], golden[14:]
    assert len(euler) == 5 and len(symmetry) == 9 and len(box) == 31
    assert set(euler) <= set(generated)
    assert set(symmetry) <= set(generated)
    diagonal = [op for op in symmetry if op.constant == 1]
    assert len(diagonal) == 3
    assert operators_contain(generated, box)
    assert elapsed < 1.0
    _report(3, f"all 45 listed operators generated, diagonal constants +1 "
               f"({elapsed:.3f}s)")


def test_criterion_04_k3_numbers():
    triple = PARTITIONS["p2-triple"]
    inv = double_cover_invariants(triple)
    assert inv.chi_X == 3 and inv.chi_Xdual == 6
    assert inv.chi_Y == 9 and inv.chi_Ydual == 9
    nodes = surface_node_count(triple)
    assert nodes == 15
    _report(4, "chi(Y) = chi(Y_dual) = 9 and 15 nodes for the six-line K3")


def test_criterion_05_mirror_duality_suite():
    start = time.perf_counter()
    checked = 0
    for name, np_ in PARTITIONS.items():
        ok, report = verify_mirror_duality(np_)
        assert ok, f"duality failed for {name}"
        sign = (-1) ** np_.dim
        assert report["chi_Y_dk"] == report["chi_Y_closed_form"] \
            == sign * report["chi_Ydual"]
        checked += 1
    assert checked >= 6
    rng = random.Random(20260810)
    for _ in range(8):
        poly = random_reflexive_polygon(rng)
        np_ = random_nef_partition(poly, rng)
        ok, report = verify_mirror_duality(np_)
        assert ok
        assert report["chi_Y_dk"] == report["chi_Y_closed_form"] \
            == report["chi_Ydual"]
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(5, f"DK route == closed form == (-1)^n chi(Y_dual) on "
               f"{checked} nef-partitions ({elapsed:.1f}s)")


def test_criterion_06_volume_identity():
    for name, np_ in PARTITIONS.items():
        vol_s = normalized_volume(s_polytope(np_))
        vol_polar = normalized_volume(np_.sections_hull)
        assert vol_s == vol_polar, name
    _report(6, "vol(S) == vol(nabla polar) on every catalog entry")


def test_criterion_07_dk_pick_oracle():
    rng = random.Random(3636)
    for _ in range(25):
        poly = random_lattice_polygon(rng, spread=2)
        fan = smooth_surface_fan(poly)
        divisor = divisor_from_polytope(fan, poly)
        boundary = boundary_lattice_count(poly)
        interior = len(lattice_points(poly)) - boundary
        assert dk_euler(fan, [divisor]) == 2 - 2 * interior - boundary
    _report(7, "dk_euler matches the Pick oracle on 25 random polygons")


def test_criterion_08_gorenstein_cone_duality():
    for name, np_ in PARTITIONS.items():
        dual = dualize(np_)
        r = np_.r
        gens = []
        for k, poly in enumerate(dual.section_polytopes):
            e = tuple(1 if j == k else 0 for j in range(r))
            gens.extend(e + v for v in poly.vertices)
        sigma_nabla = make_cone(gens)
        assert dual_cone(cayley_cone(np_)) == sigma_nabla, name
    _report(8, "dual_cone(sigma_Delta) == sigma_nabla on every catalog entry")


def test_criterion_09_bundle_contraction_pipeline():
    start = time.perf_counter()
    failures = run_bundle_example(CATALOG["bundle_example"])
    elapsed = time.perf_counter() - start
    assert failures == []
    assert elapsed < 1.0
    _report(9, f"bundle fan, contraction to a 4-cone smooth Fano fan, and "
               f"r*H' ~ -K all check ({elapsed:.3f}s)")


def test_criterion_10_hodge_suite():
    for name, np_ in PARTITIONS.items():
        inv = double_cover_invariants(np_)
        fan, _ = mpcp_fan(np_.delta)
        h, _ = hodge_numbers_smooth_toric(fan)
        hodge = dict(inv.hodge_offdiag)
        n = np_.dim
        for p in range(n + 1):
            for q in range(n + 1):
                if p + q == n:
                    assert (p, q) not in hodge
                else:
                    assert hodge[(p, q)] == (h[p] if p == q else 0), name
    for name in ("p3-(12)(34)", "p3-(123)(4)"):
        np_ = PARTITIONS[name]
        inv = double_cover_invariants(np_)
        dual_inv = double_cover_invariants(dualize(np_))
        assert inv.h11_Y == dual_inv.h21_Y, name
        assert inv.h21_Y == dual_inv.h11_Y, name
    _report(10, "off-middle Hodge numbers equal the toric h-vector; "
                "threefold diamonds mirror each other")
