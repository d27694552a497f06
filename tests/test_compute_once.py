"""Each nef-partition dualizes once and builds each MPCP fan once.

The counters wrap ``dualize`` and ``mpcp_fan`` at every ``nefmirror.*``
module attribute bound to them: ``from .x import f`` copies the binding,
so wrapping the defining module alone would miss calls.
"""
import sys
from collections import Counter

import pytest

from nefmirror import cli
from nefmirror.catalog import find_entry, load_catalog, run_entry
from nefmirror.nefpart import cayley_cone_duality_check, dualize
from nefmirror.periods import gkz_data
from nefmirror.toric import mpcp_fan

ENTRY_NAMES = [entry.name for entry in load_catalog()["entries"]]


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()

    def counting(fn):
        def wrapper(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {id(fn): counting(fn) for fn in (dualize, mpcp_fan)}
    for name, module in list(sys.modules.items()):
        if name == "nefmirror" or name.startswith("nefmirror."):
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[id(value)])
    return counts


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
    gkz_data(np_, side="primal")
    assert calls == {"dualize": 1}
