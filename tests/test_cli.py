"""Exit codes, wire formats, and report determinism of the command line tool."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sliceball.cli import main
from sliceball.hmat import diag, exp_m, hyperbolic, i11, identity, mat_to_list
from sliceball.quat import I, Quaternion, quat_to_list


def run_cli(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_identity_passes(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["check", "--what", "sp11"],
                           stdin=json.dumps(mat_to_list(identity())))
    assert code == 0
    assert out.startswith("PASS sp11 residual=0")


def test_check_nonmember_fails(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["check", "--what", "sp11"],
                           stdin=json.dumps(mat_to_list(diag(1.0, 2.0))))
    assert code == 1
    assert out.startswith("FAIL")


def test_check_malformed_json_is_parse_error(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["check", "--what", "sp11"],
                           stdin="{not json")
    assert code == 2
    assert "input error" in err


def test_check_wrong_shape_is_parse_error(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["check", "--what", "sp11"],
                           stdin=json.dumps([[1, 2], [3, 4]]))
    assert code == 2


def test_check_centralizer(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["check", "--what", "centralizer:sp1I2"],
                           stdin=json.dumps(mat_to_list(hyperbolic(1.0))))
    assert code == 0 and out.startswith("PASS")


def test_check_algebra(capsys, monkeypatch):
    from sliceball.hmat import off_diag
    code, out, _ = run_cli(capsys, monkeypatch, ["check", "--what", "algebra"],
                           stdin=json.dumps(mat_to_list(off_diag(I).as_matrix())))
    assert code == 0 and out.startswith("PASS")


def test_check_o11_reports_parts(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["check", "--what", "o11", "--format", "json"],
                           stdin=json.dumps(mat_to_list(hyperbolic(2.0) * -1.0)))
    assert code == 0
    payload = json.loads(out)
    assert payload["eps"] == -1 and payload["reflected"] is False
    assert abs(payload["t"] - 2.0) <= 1e-12


def test_mobius_negation(capsys, monkeypatch):
    q = Quaternion(0.1, 0.2, -0.3, 0.05)
    payload = {"matrix": mat_to_list(i11()), "point": quat_to_list(q)}
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["mobius", "--kind", "classical", "--format", "json"],
                           stdin=json.dumps(payload))
    assert code == 0
    got = json.loads(out)["point"]
    assert got == quat_to_list(-q)


def test_mobius_regular_centering(capsys, monkeypatch):
    from sliceball.mobius import mobius_M
    a = Quaternion(0.1, 0.3, 0.0, -0.2)
    payload = {"matrix": mat_to_list(mobius_M(a)), "point": quat_to_list(a)}
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["mobius", "--kind", "regular", "--format", "json"],
                           stdin=json.dumps(payload))
    assert code == 0
    got = json.loads(out)["point"]
    assert max(abs(v) for v in got) <= 1e-12


def test_mobius_rejects_nonmember(capsys, monkeypatch):
    payload = {"matrix": mat_to_list(diag(1.0, 2.0)), "point": [0, 0, 0, 0]}
    code, _, err = run_cli(capsys, monkeypatch, ["mobius"], stdin=json.dumps(payload))
    assert code == 1 and "not in the group" in err


def test_mobius_rejects_a_tiny_column_beside_a_huge_one(capsys, monkeypatch):
    # far from the group, though each residual entry is small next to max_norm(A)^2
    c, s = math.cosh(15.0), math.sinh(15.0)
    mat = [[[c, 0, 0, 0], [0, 0, 0, 0]], [[s, 0, 0, 0], [1e-5, 0, 0, 0]]]
    payload = {"matrix": mat, "point": [0, 0, 0, 0]}
    code, out, err = run_cli(capsys, monkeypatch, ["mobius"], stdin=json.dumps(payload))
    assert code == 1 and out == "" and "not in the group" in err


def test_decompose_symm_identity(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["decompose", "--mode", "symm", "--format", "json"],
                           stdin=json.dumps(mat_to_list(identity())))
    assert code == 0
    payload = json.loads(out)
    assert payload["u"] == [1.0, 0.0, 0.0, 0.0]
    assert payload["v"] == [1.0, 0.0, 0.0, 0.0]
    assert payload["X"] == [0.0, 0.0, 0.0, 0.0]
    assert payload["residual"] == 0.0


def test_decompose_slice(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["decompose", "--mode", "slice", "--format", "json"],
                           stdin=json.dumps(mat_to_list(exp_m(I * 0.3))))
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["X"][1] - 0.3) <= 1e-12
    assert payload["residual"] <= 1e-12


def test_decompose_rejects_nonmember(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["decompose", "--mode", "symm"],
                           stdin=json.dumps(mat_to_list(diag(1.0, 2.0))))
    assert code == 1


def test_verify_small_run_passes(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch,
                             ["verify", "--suite", "orbits", "--trials", "5",
                              "--seed", "3"])
    assert code == 0
    assert "checks passed" in out
    assert "wall time" in err  # timing goes to stderr, not the report


def test_verify_corrupted_tolerance_fails(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["verify", "--suite", "orbits", "--trials", "5",
                            "--tol", "orbit-invariance=0"])
    assert code == 1
    assert "FAIL" in out


def test_verify_unknown_tolerance_name(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch,
                           ["verify", "--trials", "2", "--tol", "bogus=1"])
    assert code == 2


def test_verify_reports_are_byte_identical(capsys, monkeypatch):
    argv = ["verify", "--suite", "orbits", "--trials", "10", "--seed", "9",
            "--format", "json"]
    _, out1, _ = run_cli(capsys, monkeypatch, argv)
    _, out2, _ = run_cli(capsys, monkeypatch, argv)
    assert out1 == out2
    rows = json.loads(out1)
    assert all(r["pass"] for r in rows)


def test_verify_csv_format(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["verify", "--suite", "orbits", "--trials", "5",
                            "--format", "csv"])
    assert code == 0
    header = out.splitlines()[0]
    assert header == "name,suite,value,tol,op,trials,pass"


def test_table_geodesic(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["table", "--kind", "geodesic", "--t-min", "-2",
                            "--t-max", "2", "--steps", "5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,w,x,y,z"
    assert len(lines) == 6
    middle = lines[3].split(",")
    assert [float(v) for v in middle] == [0.0, 0.0, 0.0, 0.0, 0.0]


def test_table_geodesic_value(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["table", "--t-min", "1", "--t-max", "2", "--steps", "2"])
    row = out.splitlines()[1].split(",")
    assert abs(float(row[1]) - math.tanh(1.0)) <= 1e-15


def test_table_orbit(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["table", "--kind", "orbit", "--u", "[0,1,0,0]",
                            "--a", "[0,0,0,0]", "--t-min", "1", "--t-max", "2",
                            "--steps", "2"])
    row = out.splitlines()[1].split(",")
    assert abs(float(row[2]) - math.tanh(1.0)) <= 1e-15


def test_table_rejects_bad_steps(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["table", "--steps", "1"])
    assert code == 2


def test_file_input(tmp_path, capsys, monkeypatch):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(mat_to_list(identity())))
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["check", "--what", "sp11", "--file", str(path)])
    assert code == 0 and out.startswith("PASS")


def test_import_does_not_load_scipy():
    # scipy is only needed by one verification oracle, so it is imported lazily
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, sliceball, sliceball.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_verify_does_not_load_scipy():
    # both oracles run on numpy alone, so a full run never imports scipy
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys; from sliceball.cli import main; "
            "code = main(['verify', '--suite', 'all', '--seed', '1']); "
            "print('scipy' in sys.modules, file=sys.stderr); sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "47/47 checks passed" in proc.stdout
    assert proc.stderr.splitlines()[-1] == "False"


def test_check_sp11_far_from_the_identity(capsys, monkeypatch):
    # exp(7.5 j) decomposes, so check --what sp11 must pass it too; the
    # reported residual stays the absolute one
    c, s = math.cosh(7.5), math.sinh(7.5)
    mat = [[[c, 0, 0, 0], [0, 0, -s, 0]], [[0, 0, s, 0], [c, 0, 0, 0]]]
    code, out, err = run_cli(capsys, monkeypatch, ["check", "--what", "sp11", "--format", "json"],
                             stdin=json.dumps(mat))
    assert code == 0, err
    payload = json.loads(out)
    assert payload["pass"] is True and payload["residual"] > 1e-10



def test_check_o11_reports_the_group_residual(capsys, monkeypatch):
    # far from the identity the o11 report carries the same absolute residual
    # as check --what sp11, not a hard-coded zero
    stdin = json.dumps(mat_to_list(hyperbolic(12.0)))
    reports = {}
    for what in ("o11", "sp11"):
        code, out, err = run_cli(capsys, monkeypatch, ["check", "--what", what, "--format", "json"],
                                 stdin=stdin)
        assert code == 0, err
        reports[what] = json.loads(out)
    assert reports["o11"]["t"] == 12.0
    assert reports["o11"]["residual"] == reports["sp11"]["residual"] > 1e-7


@pytest.mark.parametrize("r", [4.0, 7.5])
@pytest.mark.parametrize("mode", ["slice", "symm"])
def test_decompose_far_from_the_identity(capsys, monkeypatch, r, mode):
    c, s = math.cosh(r), math.sinh(r)
    mat = [[[c, 0, 0, 0], [0, 0, -s, 0]], [[0, 0, s, 0], [c, 0, 0, 0]]]
    code, out, err = run_cli(capsys, monkeypatch,
                             ["decompose", "--mode", mode, "--format", "json"],
                             stdin=json.dumps(mat))
    assert code == 0, err
    payload = json.loads(out)
    assert max(abs(a - b) for a, b in zip(payload["X"], [0, 0, r, 0])) <= 1e-12 * r


@pytest.mark.parametrize("kind", ["classical", "regular"])
@pytest.mark.parametrize("point", [[math.nan, 0, 0, 0], [0, math.inf, 0, 0], [2, 0, 0, 0]])
def test_mobius_rejects_points_off_the_ball(capsys, monkeypatch, kind, point):
    payload = {"matrix": mat_to_list(identity()), "point": point}
    code, out, err = run_cli(capsys, monkeypatch, ["mobius", "--kind", kind, "--format", "json"],
                             stdin=json.dumps(payload))
    assert code == 1 and out == ""
    assert "domain error" in err


def test_json_output_never_carries_nan(capsys, monkeypatch):
    mat = mat_to_list(identity())
    mat[0][0][0] = math.nan
    code, out, _ = run_cli(capsys, monkeypatch, ["check", "--what", "sp11", "--format", "json"],
                           stdin=json.dumps(mat))
    assert code == 1 and out == ""


@pytest.mark.parametrize("option", [["--a", "[2,0,0,0]"], ["--a", "[1,0,0,0]"],
                                    ["--a", "[NaN,0,0,0]"], ["--u", "[0,0,0,0]"],
                                    ["--u", "[NaN,0,0,0]"], ["--u", "[0,Infinity,0,0]"]])
def test_table_orbit_rejects_out_of_domain_input(capsys, monkeypatch, option):
    code, out, err = run_cli(capsys, monkeypatch,
                             ["table", "--kind", "orbit", "--steps", "3"] + option)
    assert code == 1 and out == ""
    assert "domain error" in err


@pytest.mark.parametrize("kind", ["geodesic", "orbit"])
def test_table_rejects_a_non_unit_direction(capsys, monkeypatch, kind):
    code, out, err = run_cli(capsys, monkeypatch,
                             ["table", "--kind", kind, "--u", "[2,0,0,0]",
                              "--t-min", "2", "--t-max", "3", "--steps", "2"])
    assert code == 1 and out == ""
    assert "domain error" in err and "unit" in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_fewer_than_one_trial(capsys, monkeypatch, trials):
    code, out, err = run_cli(capsys, monkeypatch, ["verify", "--trials", trials])
    assert code == 2 and out == ""
    assert "at least 1 trial" in err
