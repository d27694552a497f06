"""Command-line interface: commands, exit codes, determinism."""
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import pytest

from conftest import P4_FIVE_PARTS, P4_TWO_PARTS
import nefmirror
from nefmirror import catalog, cli, errors, invariants, nefpart
from nefmirror.catalog import (
    CatalogEntry,
    find_entry,
    load_catalog,
    run_bundle_example,
    run_entry,
)

CLI = [sys.executable, "-m", "nefmirror.cli"]
# The source root of the package under test, so the CLI child imports the
# same tree as this process, installed or not.
SOURCE_ROOT = str(Path(nefmirror.__file__).resolve().parent.parent)


def run_cli(*args, env_extra=None, text=True, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SOURCE_ROOT, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(args), capture_output=True, text=text,
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
    path.write_text(json.dumps(P4_FIVE_PARTS))
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


@pytest.mark.parametrize("field, want", [
    ("s_volume", 7), ("node_count", 1), ("nabla_vertices", [[0, 0]]),
    ("dual_fan_rays", [[1, 0]]),
])
def test_run_entry_reports_every_expected_field_alike(field, want):
    entry = find_entry("p2-triple")
    got = entry.expected[field]
    broken = CatalogEntry(entry.name, entry.nef_partition_doc,
                          {**entry.expected, field: want})
    assert run_entry(broken) == [f"{field}: computed {got}, expected {want}"]


def test_run_bundle_example_reports_a_count_alike():
    doc = load_catalog()["bundle_example"]
    doc = {**doc, "expected": {**doc["expected"], "bundle_n_max_cones": 7}}
    assert run_bundle_example(doc) == [
        "bundle_n_max_cones: computed 6, expected 7"]


def test_catalog_reports_a_taut_exception_as_a_failure(monkeypatch, tmp_path):
    def raising(degrees, dim):
        raise RuntimeError("raised on purpose")

    monkeypatch.setattr(catalog, "taut_text", raising)
    out = tmp_path / "catalog.txt"
    assert cli.main(["catalog", "--output", str(out)]) == 4
    assert ("FAIL taut-system-golden\n    RuntimeError: raised on purpose\n"
            in out.read_text())


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


def test_invariants_unwritable_output_exits_2(tmp_path):
    out = tmp_path / "missing" / "out.json"
    result = run_cli("invariants", "--input", "p2-triple", "--output", str(out))
    assert result.returncode == 2
    diag = json.loads(result.stderr)
    assert diag["error"] == "input" and str(out) in diag["message"]
    assert result.stdout == ""


# sha256 of the stdout of `nefmirror invariants --input <entry>`; the JSON
# and markdown carry every dk_terms volume.  The two P^4 inputs, written to
# files (PINNED_FILES), pin the n = 4 route, where the MPCP fans are built.
INVARIANTS_SHA256 = {
    ("p2-triple", "json"): "d731ecd23ce14bd6b48cd20ad0d0507741b0c1e437c23cbed4aac59027a62ca7",
    ("p2-triple", "md"): "9f0371e8899921827d7b0252fc143186e3889a07fc8a0b476ad08c444e28fe8f",
    ("p2-(12)(3)", "json"): "84290a9ce0fd799b887a34877b7be6286ceba014508daad19897b4442709163f",
    ("p2-(12)(3)", "md"): "b16998d43318e06a31a00ff6480e7e5b723da1a4faf3e5acd607b62d5928f815",
    ("p2-(3)(12)", "json"): "7ec8c20d59eea84008acef5cec8afe7cce88ad39de12ad4882df86af9c3823d6",
    ("p2-(3)(12)", "md"): "49ac5df7146765577349ffc3364af2a91a32138b061f5f7259ee78bd23152a54",
    ("p1-legendre", "json"): "9803feaaf7d1488a6d9c6a92a5a1c5cc879b41566df94cd18fa8bb6f7b3ee9fc",
    ("p1-legendre", "md"): "4d94b9e0285f5f58ee4ed0add22bb561195d97494ca37d27271441500419d505",
    ("p3-(12)(34)", "json"): "f7bfb8aea8af9ac4b35fcaabedaa5e25382352d71a1b72eea2ad3206ff50882f",
    ("p3-(12)(34)", "md"): "c42ba95c12b1af1880a9c0199ca0e132c308430cc849bc029d483dea94b3f857",
    ("p3-(123)(4)", "json"): "faec52432b17a8df97ae74a66ee4abf81b00831fd72bcc8c4bcd74132575d0a1",
    ("p3-(123)(4)", "md"): "99e3d304a89a13aab1a1de8e6a9c11c914de39791fca87addb1c0dd902b16f73",
    ("p4-2parts", "json"): "a05d15a2dd1ccd632b3b05378957bfc6ec4a85c52c8e4949c85c7324cf8200d6",
    ("p4-2parts", "md"): "4707b61ee7371836a567cfe761dc032169293b68b8997fe8bc60127d23d588bc",
    ("p4-5parts", "json"): "dbdeefb1f4f1ce52f6f365ed91a4bc696d4d5acea5d9bd6a24c1ec2c964dce19",
    ("p4-5parts", "md"): "e657cae6495864a8a907fd1c187f199d43802f66601e84cb3205fa64ff5592f1",
}


# dualize checks the nabla parts it prints against the dual side's section
# polytopes, which are read from Cartier data
DUALIZE_SHA256 = {
    "p2-triple": "d8633beacd82000bc31636f18ce48e2a7eb8a451538381509c0d0b14f6bcf833",
    "p2-(12)(3)": "72dfdae7e57f9f147a42818f92dd8d629ea52c749e1a6f80439b700dbdd61d89",
    "p2-(3)(12)": "f35315fba0981e48d9f947e191bd1dd022d78d8539ec49f47b0a58aebf0fc176",
    "p1-legendre": "02d315b074860a5da9fc38c819ea4a3fdf0a317a2b3c5ca256833437694e8881",
    "p3-(12)(34)": "7c982a6ef13b8c799c5d089b4fa9f77e0d5ab253ed94f3baf3841fe0ae1c6d2b",
    "p3-(123)(4)": "9d334a1beb3496cd943dd5b6f081b8bf58007a9dbefad4a8d42ae364af6c31d8",
    "p4-2parts": "ff0b6783c94c5097b6ac7a7cf1c5e20ceaaa81fa190d70b08e25147e68242e47",
    "p4-5parts": "c0af5ec6c4c1da41138ccbb9bac8eb37da0312988f15fc87ca53cde76d8a246e",
}

# The pinned inputs that are not catalog entries: nef-partition documents.
PINNED_FILES = {"p4-2parts": P4_TWO_PARTS, "p4-5parts": P4_FIVE_PARTS}


def pinned_input(name, tmp_path):
    """The --input of a pinned input: a catalog entry name, or the path of
    the file its document is written to."""
    if name not in PINNED_FILES:
        return name
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(PINNED_FILES[name]), encoding="utf-8")
    return str(path)


def test_invariants_output_bytes_are_pinned(capsys, tmp_path):
    for (name, fmt), digest in INVARIANTS_SHA256.items():
        argv = ["invariants", "--input", pinned_input(name, tmp_path),
                "--format", fmt]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == digest, (name, fmt)


def test_dualize_output_bytes_are_pinned(capsys, tmp_path):
    for name, digest in DUALIZE_SHA256.items():
        assert cli.main(["dualize", "--input", pinned_input(name, tmp_path)]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == digest, name


def test_catalog_fails_when_the_invariants_document_is_wrong(monkeypatch,
                                                            capsys):
    # catalog compares its goldens with the document `invariants` prints,
    # so a fault in that document fails the catalog too
    verify = invariants.verify_mirror_duality

    def swapped(np_):
        ok, doc = verify(np_)
        doc["chi_X"], doc["chi_Xdual"] = doc["chi_Xdual"], doc["chi_X"]
        return ok, doc

    monkeypatch.setattr(cli, "verify_mirror_duality", swapped)
    monkeypatch.setattr(catalog, "verify_mirror_duality", swapped)
    assert cli.main(["invariants", "--input", "p2-(3)(12)"]) == 0
    assert json.loads(capsys.readouterr().out)["chi_X"] == 7
    assert cli.main(["catalog"]) == 4
    out = capsys.readouterr().out
    assert "FAIL p2-(3)(12)\n    chi_X: computed 7, expected 3\n" \
           "    chi_Xdual: computed 3, expected 7\n" in out
    assert out.endswith("FAILURES present (8 targets)\n")


def test_catalog_fails_when_the_dualize_document_is_wrong(monkeypatch,
                                                         capsys):
    # catalog compares its goldens with the document `dualize` prints
    document = nefpart.dualize_document

    def dropped(np_):
        doc = document(np_)
        del doc["nabla_vertices"][0]
        return doc

    monkeypatch.setattr(cli, "dualize_document", dropped)
    monkeypatch.setattr(catalog, "dualize_document", dropped)
    assert cli.main(["dualize", "--input", "p2-triple"]) == 0
    assert len(json.loads(capsys.readouterr().out)["nabla_vertices"]) == 5
    assert cli.main(["catalog"]) == 4
    out = capsys.readouterr().out
    assert "FAIL p2-triple\n    nabla_vertices: computed " in out
    assert out.endswith("FAILURES present (8 targets)\n")


def test_catalog_non_utf8_file_exits_2(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_bytes(b'{"entries": "\xe9"}')
    result = run_cli("catalog", env_extra={"NEFMIRROR_CATALOG": str(path)})
    assert result.returncode == 2
    diag = json.loads(result.stderr)
    assert diag["error"] == "input" and "catalog" in diag["message"]
    assert result.stdout == ""


# int() reads "1_0" as 10, the Arabic-Indic digit two as 2 and "0_1" as 1,
# and "1,,2" has an empty item: each would answer for another input
@pytest.mark.parametrize("degrees, dim", [
    ("a", "2"), ("1", "-1"), (",", "2"),
    ("1_0", "2"), ("\u0662", "2"), ("2", "0_1"), ("1,,2", "2"),
])
def test_tautgen_rejects_bad_arguments(degrees, dim):
    result = run_cli("tautgen", "--degrees", degrees, "--dim", dim)
    assert result.returncode == 2
    assert json.loads(result.stderr)["error"] == "input"
    assert result.stdout == ""


@pytest.mark.parametrize("args", [
    ("invariants",), ("tautgen", "--degrees", "1", "--dim", "x"), ("bogus",),
])
def test_usage_errors_are_reported_as_json(args):
    result = run_cli(*args)
    assert result.returncode == 2
    diag = json.loads(result.stderr.splitlines()[-1])
    assert diag["error"] == "input"
    assert result.stdout == ""


def test_help_exits_0():
    result = run_cli("tautgen", "--help")
    assert result.returncode == 0
    assert "--degrees" in result.stdout


def test_tautgen_writes_its_output_in_batches(tmp_path):
    """The output is written as it is generated, so the run peaks below
    the size of the text it writes (the whole text held once would not)."""
    out = tmp_path / "taut.txt"
    # a first call loads what any run loads, so the peak below is the run's
    assert cli.main(["tautgen", "--degrees", "1", "--dim", "1",
                     "--output", str(out)]) == 0
    tracemalloc.start()
    try:
        code = cli.main(["tautgen", "--degrees", "5", "--dim", "4",
                         "--output", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < out.stat().st_size


def test_tautgen_writes_the_same_bytes_to_stdout_and_to_a_file(tmp_path):
    out = tmp_path / "taut.txt"
    args = ("tautgen", "--degrees", "5", "--dim", "4")
    to_stdout = run_cli(*args, text=False)
    to_file = run_cli(*args, "--output", str(out), text=False)
    assert to_stdout.returncode == to_file.returncode == 0
    assert to_file.stdout == b""
    assert to_stdout.stdout == out.read_bytes()
    assert to_stdout.stdout.endswith(b"\n")


def test_tautgen_check_writes_the_bytes_it_writes_unchecked():
    args = ("tautgen", "--degrees", "1,1,1,1,2", "--dim", "2")
    unchecked = run_cli(*args, text=False)
    checked = run_cli(*args, "--check", text=False)
    assert unchecked.returncode == checked.returncode == 0
    assert checked.stdout == unchecked.stdout
    # 5 Euler, 9 symmetry and 60 box operators
    assert checked.stdout.count(b"\n") == 5 + 9 + 60


def test_refused_tautgen_leaves_the_output_file_untouched(tmp_path):
    # the degrees are checked before the output file is opened
    out = tmp_path / "taut.txt"
    out.write_bytes(b"kept\n")
    for degrees in ("0", "a"):
        result = run_cli("tautgen", "--degrees", degrees, "--dim", "2",
                         "--output", str(out))
        assert result.returncode == 2
        assert out.read_bytes() == b"kept\n"


def test_failed_tautgen_check_leaves_the_output_file_untouched(monkeypatch,
                                                              tmp_path):
    # a golden Euler operator matches only exactly, never up to sign, and
    # the output file is opened only after the check has passed
    golden = catalog.golden_taut_operators()
    negated = [golden[0].negated()] + golden[1:]
    monkeypatch.setattr(catalog, "golden_taut_operators", lambda: negated)
    out = tmp_path / "taut.txt"
    out.write_bytes(b"kept\n")
    assert cli.main(["tautgen", "--degrees", "1,1,1,1,2", "--dim", "2",
                     "--check", "--output", str(out)]) == 4
    assert out.read_bytes() == b"kept\n"


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
    # s_volume is the printed top DK term, so the catalog sees it too
    assert "\n    s_volume: computed 7, expected 6\n" in text
    assert "FAILURES present" in text


def test_invariants_refuses_a_failed_gorenstein_cone_duality(
        cayley_cone_drops_last_generator, capsys):
    assert cli.main(["invariants", "--input", "p2-triple"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "internal"
    assert "Gorenstein" in err["message"]


def test_catalog_reports_a_failed_gorenstein_cone_duality(
        cayley_cone_drops_last_generator, tmp_path):
    out = tmp_path / "catalog.txt"
    assert cli.main(["catalog", "--output", str(out)]) == 4
    text = out.read_text()
    assert ("FAIL p2-triple\n    ConsistencyError: Gorenstein cone duality "
            "dual_cone(sigma_Delta) == sigma_nabla failed\n") in text


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


def _set(*keys, value):
    """A corruption that sets doc[k1][k2]...[kn] = value."""
    def corrupt(doc):
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return doc
    return corrupt


@pytest.mark.parametrize("corrupt, words", [
    (_float_bundle, ["bundle_example", "bundle_coeffs"]),
    (_no_name, ["entry 1", "name"]),
    (lambda doc: doc["entries"], ["top level"]),
    (_float_degree, ["taut_golden", "degrees"]),
    (_bundle_without_name, ["bundle_example", "name"]),
    (_set("entries", 1, "expected", "chi_X", value="3"),
     ["'p2-(12)(3)'", "chi_X"]),
    (_set("entries", 4, "expected", "h21_Y", value=15.0),
     ["'p3-(12)(34)'", "h21_Y"]),
    (_set("entries", 0, "expected", "node_count", value=True),
     ["'p2-triple'", "node_count"]),
    (_set("entries", 0, "expected", "nabla_vertices", value=[[1, 0], [0, "1"]]),
     ["'p2-triple'", "nabla_vertices"]),
    (_set("entries", 0, "expected", "dual_fan_rays", value=[1, 0]),
     ["'p2-triple'", "dual_fan_rays"]),
    (_set("entries", 3, "expected", value=[1, 2]),
     ["'p1-legendre'", "expected"]),
    (_set("entries", 0, "expected", "gkz", value={"both": {}}),
     ["'p2-triple'", "gkz"]),
    (_set("entries", 0, "expected", "gkz", "dual", "A", value=[[1, 1.5]]),
     ["'p2-triple'", "gkz dual", "'A'"]),
    (_set("entries", 0, "expected", "gkz", "dual", "beta", value=["0", "half"]),
     ["'p2-triple'", "gkz dual", "'beta'"]),
    (_set("entries", 0, "expected", "gkz", "dual", "beta", value=[0, 0]),
     ["'p2-triple'", "gkz dual", "'beta'"]),
    (_set("bundle_example", "expected", "contracted_n_rays", value="4"),
     ["bundle_example expected", "contracted_n_rays"]),
    (lambda doc: {"entrys": doc["entries"]}, ["top level", "'entrys'"]),
    (_set("entries", 2, "note", value="x"), ["entry 'p2-(3)(12)'", "'note'"]),
    (_set("entries", 0, "expected", "chi_Y_dual", value=12345),
     ["entry 'p2-triple' expected", "'chi_Y_dual'"]),
    (_set("entries", 0, "expected", "gkz", "dual", "gamma", value=[]),
     ["'p2-triple' expected gkz dual", "'gamma'"]),
    (_set("bundle_example", "coeffs", value=[0, 0, 1]),
     ["bundle_example", "'coeffs'"]),
    (_set("bundle_example", "expected", "n_rays", value=5),
     ["bundle_example expected", "'n_rays'"]),
    (_set("taut_golden", "file", value="taut_golden_degrees_11112.txt"),
     ["taut_golden", "'file'"]),
    (_set("taut_golden", "degrees", value=[1, 1, 1, 1, 0]),
     ["taut_golden", "'degrees'", ">= 1"]),
    (_set("taut_golden", "degrees", value=[]), ["taut_golden", "'degrees'"]),
    (_set("taut_golden", "dim", value=-1), ["taut_golden", "'dim'", ">= 0"]),
    (_set("entries", 3, "nef_partition", value={"delta_vertices": [[-1], [1]]}),
     ["entry 'p1-legendre' nef_partition", "'parts'"]),
    (_set("entries", 3, "nef_partition", "part", value=[[0], [1]]),
     ["entry 'p1-legendre' nef_partition", "'part'"]),
    # a present section is checked whatever its truth value, never skipped
    # as if absent
    (_set("bundle_example", value=0), ["bundle_example", "object"]),
    (_set("bundle_example", value=[]), ["bundle_example", "object"]),
    (_set("bundle_example", value={}), ["bundle_example", "'delta_vertices'"]),
    (_set("bundle_example", value=None), ["bundle_example", "object"]),
    (_set("taut_golden", value=False), ["taut_golden", "object"]),
    (_set("taut_golden", value=""), ["taut_golden", "object"]),
    (_set("taut_golden", value={}), ["taut_golden", "'degrees'"]),
], ids=["float-bundle", "entry-without-name", "top-level-list", "float-degree",
        "bundle-without-name", "string-chi", "float-h21", "bool-nodes",
        "string-vertex", "flat-rays", "list-block", "unknown-side", "float-A", "word-beta",
        "int-beta", "string-bundle-count", "unknown-top-key", "unknown-entry-key",
        "unknown-expected-key", "unknown-gkz-key", "unknown-bundle-key",
        "unknown-bundle-expected-key", "unknown-taut-key", "zero-degree",
        "no-degrees", "negative-dim", "nef-partition-without-parts",
        "unknown-nef-partition-key", "zero-bundle", "list-bundle",
        "empty-bundle", "null-bundle", "false-taut", "string-taut",
        "empty-taut"])
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


@pytest.mark.parametrize("error, kind, code", [
    (errors.InputError, "input", 2),
    (errors.DomainError, "input", 2),
    (errors.SmoothnessError, "smoothness", 3),
    (errors.GoldenMismatchError, "golden-mismatch", 4),
    (errors.ConsistencyError, "internal", 1),
    (RuntimeError, "internal", 1),
])
def test_exit_code_table(monkeypatch, capsys, error, kind, code):
    def raising(spec):
        raise error("raised on purpose")

    monkeypatch.setattr(cli, "_resolve_nef_partition", raising)
    assert cli.main(["dualize", "--input", "p2-triple"]) == code
    captured = capsys.readouterr()
    assert json.loads(captured.err) == {"error": kind,
                                        "message": "raised on purpose"}
    assert captured.out == ""


def test_invariants_rejects_an_empty_part(tmp_path):
    path = tmp_path / "np.json"
    path.write_text(json.dumps({"delta_vertices": [[2, -1], [-1, 2], [-1, -1]],
                                "parts": [[0, 1, 2], []]}))
    result = run_cli("invariants", "--input", str(path))
    assert result.returncode == 2
    diag = json.loads(result.stderr)
    assert diag["error"] == "input" and "part 1 is empty" in diag["message"]
    assert result.stdout == ""
