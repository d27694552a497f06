"""Built-in example catalog and its verification runner.

The catalog ships every worked example as a nef-partition with an
expected-invariants block, plus the projective-bundle pipeline and the
golden GKZ matrices / tautological operator list.  The default catalog
file is packaged with the module; the NEFMIRROR_CATALOG environment
variable overrides its path.

A catalog file is a JSON object that may hold these fields and no others
(``load_catalog`` rejects any other field at any level):

- ``entries``: a list of objects, each with ``name``, ``nef_partition`` (a
  nef-partition document: ``delta_vertices`` and ``parts``, both lists of
  int lists) and an optional ``expected`` block holding any
  of ``chi_X``, ``chi_Xdual``, ``chi_Y``, ``chi_Ydual``, ``h11_Y``,
  ``h21_Y``, ``s_volume``, ``node_count`` (ints), ``dual_fan_rays``,
  ``nabla_vertices`` (lists of int lists) and ``gkz``, which maps
  ``primal`` and/or ``dual`` to a golden ``{A, beta}``;
- ``bundle_example``: ``name``, ``delta_vertices``, ``bundle_coeffs``,
  ``r`` and an optional ``expected`` block holding any of
  ``bundle_n_rays``, ``bundle_n_max_cones``, ``contracted_n_rays`` and
  ``contracted_n_max_cones``;
- ``taut_golden``: ``degrees`` (ints >= 1) and ``dim`` (an int >= 0) of
  the tautological system checked against the packaged operator list.
"""
from __future__ import annotations

import json
import os
from collections import namedtuple
from fractions import Fraction

from .errors import GoldenMismatchError, InputError
from .invariants import surface_node_count, verify_mirror_duality
from .lattice import convex_hull, json_int
from .nefpart import dualize_document, nef_partition_from_doc
from .periods import (
    gkz_data,
    gkz_equal_up_to_group_permutation,
    parse_operators,
    serialize_operator,
    taut_text,
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
DATA = os.path.join(os.path.dirname(__file__), "data")


class CatalogEntry(namedtuple("CatalogEntry",
                              "name nef_partition_doc expected")):
    __slots__ = ()

    def build(self):
        return nef_partition_from_doc(self.nef_partition_doc)


def catalog_path():
    override = os.environ.get("NEFMIRROR_CATALOG")
    if override:
        return override
    return os.path.join(DATA, "catalog.json")


def load_catalog():
    path = catalog_path()
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot load catalog {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"catalog {path}: the top level must be an object")
    _check_fields(doc, "top level", {},
                  others=("entries", "bundle_example", "taut_golden"))
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise InputError(f"catalog {path}: 'entries' must be a list")
    entries = [_catalog_entry(i, e) for i, e in enumerate(entries)]
    names = [e.name for e in entries]
    if len(set(names)) != len(names):
        raise InputError("catalog entry names are not unique")
    # a present section is checked whatever its value: 0, [] or {} is
    # malformed, not absent
    bundle = doc.get("bundle_example")
    if "bundle_example" in doc:
        _check_fields(bundle, "bundle_example",
                      {"delta_vertices": 2, "bundle_coeffs": 1, "r": 0},
                      others=("name", "expected"))
        if not isinstance(bundle.get("name"), str):
            raise InputError("catalog bundle_example: field 'name' must be a string")
        _check_fields(bundle.get("expected", {}), "bundle_example expected",
                      BUNDLE_EXPECTED_DEPTHS, optional=True)
    taut = doc.get("taut_golden")
    if "taut_golden" in doc:
        _check_fields(taut, "taut_golden", {"degrees": 1, "dim": 0})
        if not taut["degrees"] or min(taut["degrees"]) < 1:
            raise InputError("catalog taut_golden: field 'degrees' must be a non-"
                             f"empty list of integers >= 1, got {taut['degrees']!r}")
        if taut["dim"] < 0:
            raise InputError("catalog taut_golden: field 'dim' must be >= 0, "
                             f"got {taut['dim']!r}")
    return {"entries": entries, "bundle_example": bundle, "taut_golden": taut}


def _catalog_entry(index, doc):
    name = doc.get("name") if isinstance(doc, dict) else None
    if not isinstance(name, str):
        raise InputError(f"catalog entry {index}: field 'name' must be a string")
    _check_fields(doc, f"entry {name!r}", {},
                  others=("name", "nef_partition", "expected"))
    _check_fields(doc.get("nef_partition"), f"entry {name!r} nef_partition",
                  {"delta_vertices": 2, "parts": 2})
    expected = doc.get("expected", {})
    where = f"entry {name!r} expected"
    _check_fields(expected, where, EXPECTED_DEPTHS, optional=True,
                  others=("gkz",))
    gkz = expected.get("gkz", {})
    if not isinstance(gkz, dict) or not set(gkz) <= {"primal", "dual"}:
        raise InputError(f"catalog {where}: field 'gkz' must be an object "
                         "with keys among 'primal' and 'dual'")
    for side, golden in gkz.items():
        _check_fields(golden, f"{where} gkz {side}", {"A": 2}, others=("beta",))
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


def _check_fields(doc, where, depths, optional=False, others=()):
    """``doc`` is an object with no field outside ``depths`` and ``others``,
    and each field named in ``depths`` is an int (depth 0), a list of ints
    (1) or a list of lists of ints (2), as ``json_int`` reads them.  With
    ``optional`` a missing field passes."""
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
    unknown = set(doc) - set(depths) - set(others)
    if unknown:
        raise InputError(f"catalog {where}: unknown field {min(unknown)!r}")
    for field, depth in depths.items():
        if optional and field not in doc:
            continue
        try:
            walk(doc.get(field), depth)
        except InputError as exc:
            raise InputError(f"catalog {where}: field {field!r}: {exc}") from None


def find_entry(name):
    for entry in load_catalog()["entries"]:
        if entry.name == name:
            return entry
    raise InputError(f"no catalog entry named {name!r}")


def golden_taut_operators():
    with open(os.path.join(DATA, "taut_golden_degrees_11112.txt"),
              encoding="utf-8") as handle:
        text = handle.read()
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


def check_taut_golden(chunks):
    """Check the text ``chunks`` of a generated tautological system
    against the packaged golden operator list, as its header says: each
    golden Euler or symmetry operator must be one of the generated lines,
    and each box operator, whose terms have no multiplier, one of them or
    the negation of one.  A golden line is read into the normal form that
    ``serialize_operator`` writes, so equal lines are equal operators.
    The first golden operator that fails is named, with its kind, in the
    GoldenMismatchError."""
    lines = set("".join(chunks).splitlines())
    for op in golden_taut_operators():
        line = serialize_operator(op)
        if line in lines:
            continue
        box = not any(t.multiplier for t in op.terms)
        if box and serialize_operator(op.negated()) in lines:
            continue
        # the Euler operators alone carry the constant 1/2 (eigenvalue
        # -1/2); a symmetry operator's constant is 0 or 1
        kind = "box" if box else \
            "symmetry" if type(op.constant) is int else "Euler"
        raise GoldenMismatchError(
            "generated tautological system is missing the golden "
            f"{kind} operator {line}")


def run_bundle_example(doc):
    """Projective-bundle pipeline: P(L+C) fan, nef H, contraction to a Fano fan
    with r H' anticanonical."""
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
    h_div = bundle_nef_divisor(bundle_fan, base, bundle_div)
    contracted = semiample_contraction(bundle_fan, h_div)
    check("contracted smooth", is_smooth(contracted))
    contracted_complete = is_complete(contracted)
    check("contracted complete", contracted_complete)
    check("contracted fano",
          contracted_complete and is_ample(anticanonical(contracted)))
    h_pushed = ToricDivisor(
        contracted,
        tuple(h_div.coeffs[bundle_fan.rays.index(ray)] for ray in contracted.rays))
    r_h = ToricDivisor(contracted, tuple(r * c for c in h_pushed.coeffs))
    check("r*H' anticanonical", linearly_equivalent(r_h, anticanonical(contracted)))
    return failures + _expected_failures(doc.get("expected", {}), {
        "bundle_n_rays": len(bundle_fan.rays),
        "bundle_n_max_cones": len(bundle_fan.max_cones),
        "contracted_n_rays": len(contracted.rays),
        "contracted_n_max_cones": len(contracted.max_cones),
    })


# The fields of an entry's "expected" block that the invariants document
# prints under the same name.
INVARIANTS_FIELDS = ("chi_X", "chi_Xdual", "chi_Y", "chi_Ydual", "h11_Y",
                     "h21_Y")


def run_entry(entry):
    """The golden checks for one nef-partition entry.  Returns a list of
    failure messages (empty = pass).  ``verify_mirror_duality`` checks
    the theorem set and raises on a failure (the entry's one FAIL line);
    here the expected invariants, s_volume (the top DK term vol(Lambda))
    and the dual geometry are compared with the documents the
    ``invariants`` and ``dualize`` commands print for the entry."""
    np_ = entry.build()
    invariants = verify_mirror_duality(np_)[1]
    dual = dualize_document(np_)
    got = {field: invariants.get(field) for field in INVARIANTS_FIELDS}
    top = list(range(1, np_.r + 1))
    got["s_volume"] = next(term["volume"] for term in invariants["dk_terms"]
                           if term["J"] == top)
    if "node_count" in entry.expected:  # surfaces only
        got["node_count"] = surface_node_count(np_)
    got["dual_fan_rays"] = dual["fan"]["rays"]
    got["nabla_vertices"] = dual["nabla_vertices"]
    failures = _expected_failures(entry.expected, got)
    for side, golden in entry.expected.get("gkz", {}).items():
        try:
            check_gkz_golden(np_, side, golden)
        except GoldenMismatchError as exc:
            failures.append(str(exc))
    return failures


def _expected_failures(expected, got):
    """One failure line for each field of ``got`` that ``expected`` names
    with a different value, in the order of ``got``."""
    return [f"{field}: computed {value}, expected {expected[field]}"
            for field, value in got.items()
            if field in expected and value != expected[field]]


def _run_taut_golden(doc):
    try:
        check_taut_golden(taut_text(doc["degrees"], doc["dim"]))
    except GoldenMismatchError as exc:
        return [str(exc)]
    return []


def catalog_run():
    """Run every entry plus the bundle pipeline and the tautological golden
    check.  Returns (all_ok, summary) where summary is a list of
    (name, failures) pairs in catalog order; an exception a target raises
    is its one failure line."""
    catalog = load_catalog()
    targets = [(entry.name, run_entry, entry) for entry in catalog["entries"]]
    bundle = catalog["bundle_example"]
    if bundle:
        targets.append((bundle["name"], run_bundle_example, bundle))
    if catalog["taut_golden"]:
        targets.append(("taut-system-golden", _run_taut_golden,
                        catalog["taut_golden"]))
    summary = []
    for name, runner, doc in targets:
        try:
            failures = runner(doc)
        except Exception as exc:  # surfaced per target, named
            failures = [f"{type(exc).__name__}: {exc}"]
        summary.append((name, failures))
    return all(not f for _, f in summary), summary
