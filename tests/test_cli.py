"""Command-line interface: commands, exit codes, determinism."""
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from conftest import P4_DELTA
import nefmirror
from nefmirror import cli

CLI = [sys.executable, "-m", "nefmirror.cli"]
# The source root of the package under test, so the CLI child imports the
# same tree as this process, installed or not.
SOURCE_ROOT = str(Path(nefmirror.__file__).resolve().parent.parent)


def run_cli(*args, env_extra=None, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SOURCE_ROOT, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=env, **kwargs)


def test_dualize_catalog_entry():
    result = run_cli("dualize", "--input", "p2-triple")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["fan"]["rays"] == [[-1, 0], [-1, 1], [0, -1], [0, 1], [1, -1], [1, 0]]
    assert sorted(doc["nabla_vertices"]) == [
        [-1, -1], [-1, 0], [0, -1], [0, 1], [1, 0], [1, 1]]


def test_dualize_file_input(tmp_path):
    path = tmp_path / "np.json"
    path.write_text(json.dumps({
        "delta_vertices": [[2, -1], [-1, 2], [-1, -1]],
        "parts": [[2], [1], [0]],
    }))
    result = run_cli("dualize", "--input", str(path))
    assert result.returncode == 0


def test_dualize_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    result = run_cli("dualize", "--input", str(path))
    assert result.returncode == 2
    diag = json.loads(result.stderr)
    assert diag["error"] == "input"


def test_unknown_entry_exits_2():
    result = run_cli("invariants", "--input", "no-such-entry")
    assert result.returncode == 2


def test_invariants_p2_triple():
    result = run_cli("invariants", "--input", "p2-triple")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["chi_Y"] == 9
    assert doc["duality_ok"] is True
    assert {"chi_X", "chi_Xdual", "chi_Ydual", "hodge", "dk_terms"} <= set(doc)


def test_invariants_p3():
    result = run_cli("invariants", "--input", "p3-(12)(34)")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["duality_ok"] is True
    assert doc["h11_Y"] == 1 and doc["h21_Y"] == 15


def test_invariants_markdown():
    result = run_cli("invariants", "--input", "p2-triple", "--format", "md")
    assert result.returncode == 0
    assert "chi(Y) = 9" in result.stdout


def test_invariants_five_part_p4(tmp_path):
    # the Cayley pyramids of five parts lie in R^(5+4) = R^9
    path = tmp_path / "p4.json"
    path.write_text(json.dumps({"delta_vertices": P4_DELTA,
                                "parts": [[0], [1], [2], [3], [4]]}))
    result = run_cli("invariants", "--input", str(path))
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert (doc["chi_X"], doc["chi_Xdual"]) == (5, 70)
    assert doc["chi_Y"] == doc["chi_Ydual"] == 75
    assert doc["duality_ok"] is True
    assert len(doc["dk_terms"]) == 31
    # Lambda_J is the Cayley pyramid of |J| unit 4-simplices
    assert all(term["volume"] == comb(len(term["J"]) + 3, 4)
               for term in doc["dk_terms"])


def test_invariants_non_smooth_4d_exits_3(tmp_path):
    path = tmp_path / "np4.json"
    path.write_text(json.dumps({
        "delta_vertices": [[0, 0, 0, 1], [1, 0, 0, 1], [0, 1, 0, 1],
                           [1, 1, 2, 1], [-1, -1, -1, -2]],
        "parts": [[0, 1, 2, 3, 4]],
    }))
    result = run_cli("invariants", "--input", str(path))
    assert result.returncode == 3
    diag = json.loads(result.stderr)
    assert diag["error"] == "smoothness"


def test_gkz_checks_pass():
    result = run_cli("gkz", "--input", "p2-triple", "--side", "dual", "--check")
    assert result.returncode == 0
    result = run_cli("gkz", "--input", "p2-(3)(12)", "--side", "primal", "--check")
    assert result.returncode == 0


def test_gkz_check_without_golden_exits_2():
    result = run_cli("gkz", "--input", "p1-legendre", "--side", "dual", "--check")
    assert result.returncode == 2


def test_gkz_check_mismatch_exits_4(tmp_path):
    from nefmirror.catalog import catalog_path
    with open(catalog_path(), encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["entries"][0]["expected"]["gkz"]["dual"]["A"][3][1] = 7
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    result = run_cli("gkz", "--input", "p2-triple", "--side", "dual", "--check",
                     env_extra={"NEFMIRROR_CATALOG": str(path)})
    assert result.returncode == 4
    assert json.loads(result.stderr)["error"] == "golden-mismatch"


def test_tautgen_check_passes():
    result = run_cli("tautgen", "--degrees", "1,1,1,1,2", "--dim", "2", "--check")
    assert result.returncode == 0
    assert "a11*d(a11) + a21*d(a21) + a31*d(a31) + 1/2" in result.stdout


def test_tautgen_check_unknown_degrees_exits_2():
    result = run_cli("tautgen", "--degrees", "2,2", "--dim", "3", "--check")
    assert result.returncode == 2


def test_catalog_run_all_pass():
    result = run_cli("catalog")
    assert result.returncode == 0
    assert "all checks passed" in result.stdout
    assert result.stdout.count("PASS") == 8


def test_catalog_injected_failure_named(tmp_path):
    from nefmirror.catalog import catalog_path
    with open(catalog_path(), encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["entries"][0]["expected"]["chi_Y"] = 999
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    result = run_cli("catalog", env_extra={"NEFMIRROR_CATALOG": str(path)})
    assert result.returncode == 4
    assert "FAIL p2-triple" in result.stdout
    assert "chi_Y" in result.stdout


def test_catalog_empty_warns(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"entries": []}))
    result = run_cli("catalog", env_extra={"NEFMIRROR_CATALOG": str(path)})
    assert result.returncode == 0
    assert "warning" in result.stdout


def test_outputs_are_deterministic(tmp_path):
    runs = [run_cli("invariants", "--input", "p2-(12)(3)").stdout
            for _ in range(2)]
    assert runs[0] == runs[1]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("gkz", "--input", "p2-triple", "--side", "dual",
            "--output", str(out1))
    run_cli("gkz", "--input", "p2-triple", "--side", "dual",
            "--output", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("doc", [
    {"delta_vertices": [[2.9, -1], [-1, 2], [-1, -1]], "parts": [[2], [1], [0]]},
    {"delta_vertices": [[2, -1], [-1, 2], [-1, -1]], "parts": [[2], [True], [0]]},
    {"delta_vertices": [[2, -1], [-1, 2], [-1, "-1"]], "parts": [[2], [1], [0]]},
])
def test_invariants_rejects_non_integer_json(tmp_path, doc):
    path = tmp_path / "np.json"
    path.write_text(json.dumps(doc))
    result = run_cli("invariants", "--input", str(path))
    assert result.returncode == 2
    assert json.loads(result.stderr)["error"] == "input"
    assert result.stdout == ""


def test_catalog_entry_without_parts_exits_2(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"entries": [{
        "name": "no-parts",
        "nef_partition": {"delta_vertices": [[2, -1], [-1, 2], [-1, -1]]}}]}))
    result = run_cli("invariants", "--input", "no-parts",
                     env_extra={"NEFMIRROR_CATALOG": str(path)})
    assert result.returncode == 2
    diag = json.loads(result.stderr)
    assert diag["error"] == "input" and "parts" in diag["message"]


@pytest.mark.parametrize("content", [None, b'{"parts": "\xe9"}'],
                         ids=["directory", "non-utf8-file"])
def test_invariants_unreadable_input_exits_2(tmp_path, content):
    path = tmp_path
    if content is not None:
        path = tmp_path / "np.json"
        path.write_bytes(content)
    result = run_cli("invariants", "--input", str(path))
    assert result.returncode == 2
    assert json.loads(result.stderr)["error"] == "input"
    assert result.stdout == ""


def test_catalog_non_utf8_file_exits_2(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_bytes(b'{"entries": "\xe9"}')
    result = run_cli("catalog", env_extra={"NEFMIRROR_CATALOG": str(path)})
    assert result.returncode == 2
    diag = json.loads(result.stderr)
    assert diag["error"] == "input" and "catalog" in diag["message"]
    assert result.stdout == ""


@pytest.mark.parametrize("degrees, dim", [("a", "2"), ("1", "-1"), (",", "2")])
def test_tautgen_rejects_bad_arguments(degrees, dim):
    result = run_cli("tautgen", "--degrees", degrees, "--dim", dim)
    assert result.returncode == 2
    assert json.loads(result.stderr)["error"] == "input"
    assert result.stdout == ""


def test_tautgen_ambiguous_labels_exit_2():
    result = run_cli("tautgen", "--degrees", ",".join(["1"] * 11), "--dim", "10")
    assert result.returncode == 2
    diag = json.loads(result.stderr)
    assert diag["error"] == "input" and "a111" in diag["message"]
    assert result.stdout == ""


def test_invariants_reports_a_failed_dk_cross_check(dk_top_term_plus_one,
                                                    tmp_path):
    out = tmp_path / "inv"
    assert cli.main(["invariants", "--input", "p2-triple",
                     "--output", str(out)]) == 0
    assert json.loads(out.read_text())["duality_ok"] is False
    assert cli.main(["invariants", "--input", "p2-triple", "--format", "md",
                     "--output", str(out)]) == 0
    assert "DK route chi(Y) = closed form: FAILED" in out.read_text()


def test_catalog_reports_a_failed_dk_cross_check(dk_top_term_plus_one,
                                                 tmp_path):
    out = tmp_path / "catalog.txt"
    assert cli.main(["catalog", "--output", str(out)]) == 4
    text = out.read_text()
    assert "FAIL p2-triple\n    mirror duality cross-check failed" in text
    assert "FAILURES present" in text


def _float_bundle(doc):
    doc["bundle_example"]["bundle_coeffs"] = [0.0, 0.0, 1.0]
    doc["bundle_example"]["r"] = 4.0
    return doc


def _no_name(doc):
    del doc["entries"][1]["name"]
    return doc


def _bundle_without_name(doc):
    del doc["bundle_example"]["name"]
    return doc


def _float_degree(doc):
    doc["taut_golden"]["degrees"][4] = 2.0
    return doc


@pytest.mark.parametrize("corrupt, words", [
    (_float_bundle, ["bundle_example", "bundle_coeffs"]),
    (_no_name, ["entry 1", "name"]),
    (lambda doc: doc["entries"], ["top level"]),
    (_float_degree, ["taut_golden", "degrees"]),
    (_bundle_without_name, ["bundle_example", "name"]),
], ids=["float-bundle", "entry-without-name", "top-level-list", "float-degree",
        "bundle-without-name"])
def test_catalog_file_validated_at_load(tmp_path, corrupt, words):
    from nefmirror.catalog import catalog_path
    with open(catalog_path(), encoding="utf-8") as handle:
        doc = json.load(handle)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(corrupt(doc)))
    result = run_cli("catalog", env_extra={"NEFMIRROR_CATALOG": str(path)})
    assert result.returncode == 2
    diag = json.loads(result.stderr)
    assert diag["error"] == "input"
    assert all(word in diag["message"] for word in words)
    assert result.stdout == ""
