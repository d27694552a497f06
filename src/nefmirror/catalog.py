"""Built-in example catalog and its verification runner.

The catalog ships every worked example as a nef-partition with an
expected-invariants block, plus the projective-bundle pipeline and the
golden GKZ matrices / tautological operator list.  The default catalog
file is packaged with the module; the NEFMIRROR_CATALOG environment
variable overrides its path.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .errors import GoldenMismatchError, InputError
from .invariants import surface_node_count, verify_mirror_duality
from .lattice import convex_hull, json_int, normalized_volume
from .nefpart import cayley_cone_duality_check, nef_partition_from_doc
from .periods import (
    gkz_data,
    gkz_equal_up_to_group_permutation,
    operators_contain,
    parse_operators,
    taut_system,
)
from .toric import (
    ToricDivisor,
    anticanonical,
    bundle_nef_divisor,
    is_ample,
    is_calabi_yau_cover,
    is_complete,
    is_smooth,
    linearly_equivalent,
    normal_fan,
    projective_bundle_fan,
    semiample_contraction,
)


# The list depth of each field an entry's "expected" block may hold (0 for
# an int, 2 for a list of int lists), and likewise for the bundle example.
EXPECTED_DEPTHS = {
    **dict.fromkeys(("chi_X", "chi_Xdual", "chi_Y", "chi_Ydual", "h11_Y",
                     "h21_Y", "s_volume", "node_count"), 0),
    "dual_fan_rays": 2,
    "nabla_vertices": 2,
}
BUNDLE_EXPECTED_DEPTHS = dict.fromkeys(
    ("bundle_n_rays", "bundle_n_max_cones", "contracted_n_rays",
     "contracted_n_max_cones"), 0)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    nef_partition_doc: dict
    expected: dict

    def build(self):
        return nef_partition_from_doc(self.nef_partition_doc)


def catalog_path():
    override = os.environ.get("NEFMIRROR_CATALOG")
    if override:
        return override
    return str(resources.files("nefmirror").joinpath("data/catalog.json"))


def load_catalog(path=None):
    path = path or catalog_path()
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot load catalog {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"catalog {path}: the top level must be an object")
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise InputError(f"catalog {path}: 'entries' must be a list")
    entries = [_catalog_entry(i, e) for i, e in enumerate(entries)]
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise InputError("catalog entry names are not unique")
    bundle = doc.get("bundle_example")
    if bundle:
        _check_fields(bundle, "bundle_example",
                      {"delta_vertices": 2, "bundle_coeffs": 1, "r": 0})
        if not isinstance(bundle.get("name"), str):
            raise InputError("catalog bundle_example: field 'name' must be a string")
        _check_fields(bundle.get("expected", {}), "bundle_example expected",
                      BUNDLE_EXPECTED_DEPTHS, optional=True)
    taut = doc.get("taut_golden")
    if taut:
        _check_fields(taut, "taut_golden", {"degrees": 1, "dim": 0})
    return {"entries": entries, "bundle_example": bundle, "taut_golden": taut}


def _catalog_entry(index, doc):
    name = doc.get("name") if isinstance(doc, dict) else None
    if not isinstance(name, str):
        raise InputError(f"catalog entry {index}: field 'name' must be a string")
    if not isinstance(doc.get("nef_partition"), dict):
        raise InputError(
            f"catalog entry {name!r}: field 'nef_partition' must be an object")
    expected = doc.get("expected", {})
    where = f"entry {name!r} expected"
    _check_fields(expected, where, EXPECTED_DEPTHS, optional=True)
    gkz = expected.get("gkz", {})
    if not isinstance(gkz, dict) or not set(gkz) <= {"primal", "dual"}:
        raise InputError(f"catalog {where}: field 'gkz' must be an object "
                         "with keys among 'primal' and 'dual'")
    for side, golden in gkz.items():
        _check_fields(golden, f"{where} gkz {side}", {"A": 2})
        beta = golden.get("beta")
        try:
            if not isinstance(beta, list):
                raise ValueError
            for b in beta:
                Fraction(b if isinstance(b, str) else "")
        except (ValueError, ZeroDivisionError):
            raise InputError(f"catalog {where} gkz {side}: field 'beta' must be "
                             f"a list of fraction strings, got {beta!r}") from None
    return CatalogEntry(name, doc["nef_partition"], expected)


def _check_fields(doc, where, depths, optional=False):
    """Each field of ``doc`` named in ``depths`` is an int (depth 0), a list
    of ints (1) or a list of lists of ints (2), as ``json_int`` reads them.
    With ``optional`` a missing field passes."""
    def walk(value, depth):
        if depth == 0:
            json_int(value)
        elif isinstance(value, list):
            for item in value:
                walk(item, depth - 1)
        else:
            raise InputError(f"expected a list, got {value!r}")

    if not isinstance(doc, dict):
        raise InputError(f"catalog {where} must be an object")
    for field, depth in depths.items():
        if optional and field not in doc:
            continue
        try:
            walk(doc.get(field), depth)
        except InputError as exc:
            raise InputError(f"catalog {where}: field {field!r}: {exc}") from None


def find_entry(name, catalog=None):
    catalog = catalog or load_catalog()
    for entry in catalog["entries"]:
        if entry.name == name:
            return entry
    raise InputError(f"no catalog entry named {name!r}")


def golden_taut_operators():
    text = resources.files("nefmirror").joinpath(
        "data/taut_golden_degrees_11112.txt").read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    return parse_operators("\n".join(lines))


# ---------------------------------------------------------------------------
# golden checks
# ---------------------------------------------------------------------------

def check_gkz_golden(nef_partition, side, golden):
    """``side`` is "primal" or "dual": the GKZ data of ``nef_partition`` or
    of its dual."""
    data = gkz_data(nef_partition.dual if side == "dual" else nef_partition)
    if not gkz_equal_up_to_group_permutation(data, golden["A"], golden["beta"]):
        raise GoldenMismatchError(
            f"GKZ {side} matrix differs from the stored golden")
    return data


def check_taut_golden(degrees, dim):
    generated = taut_system(list(degrees), dim)
    golden = golden_taut_operators()
    if not operators_contain(generated, golden, sign_insensitive=True):
        raise GoldenMismatchError(
            "generated tautological system is missing golden operators")
    return generated


def run_bundle_example(doc):
    """Projective-bundle pipeline: P(L+C) fan, nef H, contraction to a Fano fan
    with r H' anticanonical."""
    expected = doc.get("expected", {})
    failures = []
    delta = convex_hull([tuple(v) for v in doc["delta_vertices"]])
    base = normal_fan(delta)
    bundle_div = ToricDivisor(base, tuple(doc["bundle_coeffs"]))
    r = doc["r"]

    def check(label, ok):
        if not ok:
            failures.append(label)

    check("calabi-yau condition", is_calabi_yau_cover(base, bundle_div, r))
    bundle_fan = projective_bundle_fan(base, bundle_div)
    check("bundle fan smooth", is_smooth(bundle_fan))
    check("bundle fan complete", is_complete(bundle_fan))
    if "bundle_n_rays" in expected:
        check("bundle ray count", len(bundle_fan.rays) == expected["bundle_n_rays"])
    if "bundle_n_max_cones" in expected:
        check("bundle cone count",
              len(bundle_fan.max_cones) == expected["bundle_n_max_cones"])
    h_div = bundle_nef_divisor(bundle_fan, base, bundle_div)
    contracted = semiample_contraction(bundle_fan, h_div)
    check("contracted smooth", is_smooth(contracted))
    contracted_complete = is_complete(contracted)
    check("contracted complete", contracted_complete)
    check("contracted fano",
          contracted_complete and is_ample(anticanonical(contracted)))
    if "contracted_n_rays" in expected:
        check("contracted ray count",
              len(contracted.rays) == expected["contracted_n_rays"])
    if "contracted_n_max_cones" in expected:
        check("contracted cone count",
              len(contracted.max_cones) == expected["contracted_n_max_cones"])
    h_pushed = ToricDivisor(
        contracted,
        tuple(h_div.coeffs[bundle_fan.rays.index(ray)] for ray in contracted.rays))
    r_h = ToricDivisor(contracted, tuple(r * c for c in h_pushed.coeffs))
    check("r*H' anticanonical", linearly_equivalent(r_h, anticanonical(contracted)))
    return failures


def run_entry(entry):
    """All checks for one nef-partition entry.  Returns a list of failure
    messages (empty = pass)."""
    failures = []
    np_ = entry.build()
    expected = entry.expected

    ok, report = verify_mirror_duality(np_)
    if not ok:
        failures.append("mirror duality cross-check failed")
    inv = report["invariants"]
    for key in ("chi_X", "chi_Xdual", "chi_Y", "chi_Ydual", "h11_Y", "h21_Y"):
        if key in expected and getattr(inv, key) != expected[key]:
            failures.append(f"{key}: computed {getattr(inv, key)}, "
                            f"expected {expected[key]}")
    s_vol = normalized_volume(np_.cayley_pyramid)
    if "s_volume" in expected and s_vol != expected["s_volume"]:
        failures.append(f"s_volume: computed {s_vol}, "
                        f"expected {expected['s_volume']}")
    if s_vol != normalized_volume(np_.sections_hull):
        failures.append("volume identity vol(S) == vol(nabla polar) failed")
    if not cayley_cone_duality_check(np_):
        failures.append("Gorenstein cone duality failed")
    if "node_count" in expected:
        nodes = surface_node_count(np_)
        if nodes != expected["node_count"]:
            failures.append(f"node_count: computed {nodes}, "
                            f"expected {expected['node_count']}")
    if "dual_fan_rays" in expected:
        rays = [list(r) for r in np_.dual.fan.rays]
        if rays != expected["dual_fan_rays"]:
            failures.append("dual fan rays differ from expected list")
    if "nabla_vertices" in expected:
        verts = [list(v) for v in np_.dual.delta.vertices]
        if verts != expected["nabla_vertices"]:
            failures.append("nabla vertices differ from expected list")
    for side, golden in expected.get("gkz", {}).items():
        try:
            check_gkz_golden(np_, side, golden)
        except GoldenMismatchError as exc:
            failures.append(str(exc))
    return failures


def catalog_run(path=None):
    """Run every entry plus the bundle pipeline and the tautological golden
    check.  Returns (all_ok, summary) where summary is a list of
    (name, failures) pairs in catalog order."""
    catalog = load_catalog(path)
    summary = []
    for entry in catalog["entries"]:
        try:
            failures = run_entry(entry)
        except Exception as exc:  # surfaced per entry, named
            failures = [f"{type(exc).__name__}: {exc}"]
        summary.append((entry.name, failures))
    bundle = catalog.get("bundle_example")
    if bundle:
        try:
            failures = run_bundle_example(bundle)
        except Exception as exc:
            failures = [f"{type(exc).__name__}: {exc}"]
        summary.append((bundle["name"], failures))
    taut = catalog.get("taut_golden")
    if taut:
        try:
            check_taut_golden(taut["degrees"], taut["dim"])
            failures = []
        except GoldenMismatchError as exc:
            failures = [str(exc)]
        summary.append(("taut-system-golden", failures))
    all_ok = all(not f for _, f in summary)
    return all_ok, summary
