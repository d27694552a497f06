"""The package's records: immutable named tuples, and a CLI import that
loads neither ``dataclasses`` nor ``importlib.resources``."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import P2_DELTA
from nefmirror import catalog, lattice, nefpart, periods, toric
from nefmirror.catalog import find_entry
from nefmirror.errors import InputError
from nefmirror.lattice import convex_hull, make_cone, maximal_boundary_triangulation
from nefmirror.periods import coefficient_variables, gkz_data, make_operator
from nefmirror.toric import ToricDivisor, anticanonical, cartier_data, normal_fan

SRC = Path(__file__).resolve().parent.parent / "src"
# What a cold ``import nefmirror.cli`` must not pay for: dataclasses pulls
# in inspect (and with it ast, dis and tokenize).
HEAVY = ("dataclasses", "inspect", "importlib.resources")


def test_cli_import_loads_no_dataclasses_inspect_or_resources():
    # -S: no site hook has imported any of them before the package does
    probe = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
             "import nefmirror.cli; print(json.dumps([nefmirror.__file__, "
             "[m for m in sys.argv[2:] if m in sys.modules]]))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC), *HEAVY],
                         check=True, capture_output=True, text=True).stdout
    origin, loaded = json.loads(out)
    assert Path(origin).parent == SRC / "nefmirror"
    assert not loaded, f"import nefmirror.cli loaded {', '.join(loaded)}"


def _records():
    polytope = convex_hull(P2_DELTA)
    fan = normal_fan(polytope)
    divisor = anticanonical(fan)
    entry = find_entry("p2-(3)(12)")
    partition = entry.build()
    operator = make_operator([(2, ("a11",), "b12")], 1)
    return [polytope, make_cone([(1, 0), (0, 1)]),
            maximal_boundary_triangulation(convex_hull([(1, 0), (0, 1), (-1, -1)])),
            fan, divisor, cartier_data(divisor), partition, gkz_data(partition),
            coefficient_variables([2], 1)[0], operator.terms[0], operator,
            entry]


RECORDS = _records()


def test_the_table_holds_every_record_class_of_the_package():
    defined = {value for module in (catalog, lattice, nefpart, periods, toric)
               for value in vars(module).values()
               if isinstance(value, type) and issubclass(value, tuple)
               and value.__module__ == module.__name__}
    assert len(defined) == 12
    assert {type(record) for record in RECORDS} == defined


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_every_field_is_read_only(record):
    before = repr(record)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


def test_polytopes_that_differ_only_in_facets_are_equal():
    polytope = convex_hull(P2_DELTA)
    other = polytope._replace(facets=polytope.facets[:-1])
    assert polytope == other
    assert not polytope != other
    assert hash(polytope) == hash(other)
    assert polytope != convex_hull([(1, 0), (0, 1), (-1, -1)])


@pytest.mark.parametrize("coeffs", [(1, 0), (1, 0, 0, 0), (1, 0.5, 0), (1, "0", 0)])
def test_toric_divisor_refuses_malformed_coefficients(coeffs):
    with pytest.raises(InputError):
        ToricDivisor(normal_fan(convex_hull(P2_DELTA)), coeffs)


@pytest.mark.parametrize("coeffs", [(1, 0), (1, 0.5, 0)],
                         ids=["wrong-count", "non-int"])
@pytest.mark.parametrize("rebuild", [
    lambda divisor, coeffs: divisor._replace(coeffs=coeffs),
    lambda divisor, coeffs: ToricDivisor._make((divisor.fan, coeffs)),
], ids=["_replace", "_make"])
def test_toric_divisor_replace_and_make_check_as_the_constructor(rebuild,
                                                                 coeffs):
    divisor = anticanonical(normal_fan(convex_hull(P2_DELTA)))
    with pytest.raises(InputError):
        rebuild(divisor, coeffs)
    assert rebuild(divisor, (1, 2, 3)) == ToricDivisor(divisor.fan, (1, 2, 3))


@pytest.mark.parametrize("build, attribute, module, function", [
    (lambda: convex_hull(P2_DELTA), "nvolume", lattice, "det"),
    (lambda: find_entry("p2-(3)(12)").build(), "dual", nefpart, "dualize"),
    (lambda: gkz_data(find_entry("p2-(3)(12)").build()), "kernel_basis",
     periods, "integer_kernel_basis"),
], ids=["nvolume", "dual", "kernel_basis"])
def test_a_cached_property_is_computed_once(monkeypatch, build, attribute,
                                            module, function):
    record = build()
    calls = []
    real = getattr(module, function)
    monkeypatch.setattr(module, function,
                        lambda *args: calls.append(args) or real(*args))
    first = getattr(record, attribute)
    assert calls
    made = len(calls)
    assert getattr(record, attribute) is first
    assert len(calls) == made
