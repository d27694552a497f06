"""Command-line interface: commands, exit codes, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import nefmirror

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
