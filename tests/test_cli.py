"""Exit codes, wire formats, and report determinism of the command line tool."""

import ast
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sliceball import CENTRALIZER_SUBGROUPS, verify
from sliceball.cli import _mat_from_list, _quat_from_list, _quat_to_list, main
from sliceball.hmat import I11, IDENTITY, QMat2, diag, exp_m, hyperbolic
from sliceball.lie import SliceFactorization, SymmFactorization, symm_compose
from sliceball.quat import I, J, ONE, Quaternion, sgn


def quat_to_list(q):
    """The CLI wire format of a quaternion: [w, x, y, z]."""
    return [q.w, q.x, q.y, q.z]


def mat_to_list(a):
    """The CLI wire format of a matrix: a 2x2 array of [w, x, y, z] quaternions."""
    return [[quat_to_list(a.m11), quat_to_list(a.m12)],
            [quat_to_list(a.m21), quat_to_list(a.m22)]]


def run_cli(capsys, monkeypatch, argv, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quat_json_roundtrip():
    q = Quaternion(1.5, -2.25, 0.125, 9.0)
    assert _quat_from_list(_quat_to_list(q)) == q
    assert _quat_to_list(q) == [1.5, -2.25, 0.125, 9.0]
    for data in ([1, 2, 3], ["1", 0, 0, 0], [True, 0, 0, 0], [0, 0, None, 0], [0, 0, 0, [1]]):
        with pytest.raises(ValueError):
            _quat_from_list(data)


def test_mat_json_roundtrip():
    a = QMat2(Quaternion(1, 2, 3, 4), I, J, Quaternion(-1, 0.5, 0, 0))
    assert _mat_from_list([[[1, 2, 3, 4], [0, 1, 0, 0]], [[0, 0, 1, 0], [-1, 0.5, 0, 0]]]) == a
    with pytest.raises(ValueError):
        _mat_from_list([[1, 2], [3]])


def test_factorization_json_roundtrip(capsys, monkeypatch):
    # decompose writes u, v and X by field name, whatever order the record keeps them in
    want = {"u": [0.0, 1.0, 0.0, 0.0], "v": [0.0, 0.0, 1.0, 0.0], "X": [0.1, 0.2, 0.3, 0.4]}
    x = Quaternion(0.1, 0.2, 0.3, 0.4)
    for mode, fact in (("symm", SymmFactorization(I, J, x)),
                       ("slice", SliceFactorization(I, x, J))):
        monkeypatch.setattr(f"sliceball.lie.{mode}_decompose", lambda a, fact=fact: fact)
        code, out, _ = run_cli(capsys, monkeypatch,
                               ["decompose", "--mode", mode, "--format", "json"],
                               stdin=json.dumps(mat_to_list(IDENTITY)))
        payload = json.loads(out)
        del payload["residual"]
        assert code == 0 and payload == want


def test_check_identity_passes(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["check", "--what", "sp11"],
                           stdin=json.dumps(mat_to_list(IDENTITY)))
    assert code == 0
    assert out.startswith("PASS sp11 residual=0")


def test_check_nonmember_fails(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["check", "--what", "sp11"],
                           stdin=json.dumps(mat_to_list(diag(ONE, Quaternion(2.0)))))
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
    payload = {"matrix": mat_to_list(I11), "point": quat_to_list(q)}
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
    payload = {"matrix": mat_to_list(diag(ONE, Quaternion(2.0))), "point": [0, 0, 0, 0]}
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
                           stdin=json.dumps(mat_to_list(IDENTITY)))
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
                           stdin=json.dumps(mat_to_list(diag(ONE, Quaternion(2.0)))))
    assert code == 1


def test_verify_small_run_passes(capsys, monkeypatch):
    code, out, err = run_cli(capsys, monkeypatch,
                             ["verify", "--suite", "orbits", "--trials", "5",
                              "--seed", "3"])
    assert code == 0
    assert "checks passed" in out
    assert "wall time" in err  # timing goes to stderr, not the report


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
def test_verify_runs_blas_on_one_thread_unless_told(capsys, monkeypatch, preset, want):
    # every matrix of the suite is 4x4: more BLAS threads would only cost CPU time
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    monkeypatch.setattr(os, "environ", env)
    code, _, _ = run_cli(capsys, monkeypatch, ["verify", "--suite", "orbits", "--trials", "1"])
    assert code == 0 and env == {"OPENBLAS_NUM_THREADS": want}


def test_verify_corrupted_tolerance_fails(capsys, monkeypatch):
    # a bound is set only in the registry; forked workers inherit the patched one
    index = verify.CHECK_NAMES.index("orbit-invariance")
    checks = list(verify.CHECKS)
    checks[index] = checks[index]._replace(tol=0.0)
    monkeypatch.setattr(verify, "CHECKS", tuple(checks))
    code, out, _ = run_cli(capsys, monkeypatch,
                           ["verify", "--suite", "orbits", "--trials", "5"])
    assert code == 1
    assert "FAIL  orbit-invariance" in out
    assert "3/4 checks passed" in out


def test_verify_takes_no_tolerance_option(capsys, monkeypatch):
    # every tolerance comes from the registry; a run cannot move one
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--tol", "orbit-invariance=1e-9"])
    out, err = capsys.readouterr()
    assert exit_info.value.code == 2 and out == ""
    assert "usage:" in err and "unrecognized arguments: --tol" in err


def test_verify_reports_are_byte_identical(capsys, monkeypatch):
    argv = ["verify", "--suite", "orbits", "--trials", "10", "--seed", "9",
            "--format", "json"]
    _, out1, _ = run_cli(capsys, monkeypatch, argv)
    _, out2, _ = run_cli(capsys, monkeypatch, argv)
    assert out1 == out2
    rows = json.loads(out1)
    assert all(r["pass"] for r in rows)


def test_verify_reports_a_check_that_raised(capsys, monkeypatch):
    # a NaN orbit has no axis crossing: the grid oracle raises, the run goes on
    nan = Quaternion(math.nan, math.nan, math.nan, math.nan)
    monkeypatch.setattr(verify, "iso_g_act", lambda *args, **kwargs: nan)
    code, out, err = run_cli(capsys, monkeypatch, ["verify", "--suite", "orbits"])
    assert code == 1
    assert any(line.startswith("FAIL  orbit-grid-oracle ") for line in out.splitlines())
    assert "checks passed" in out
    assert "error in orbit-grid-oracle: ConsistencyError: no axis crossing" in err
    assert "error" not in out


def test_verify_json_writes_a_failing_infinity_as_null(capsys, monkeypatch):
    # a check that raised fails at infinity, which strict JSON has no word for
    nan = Quaternion(math.nan, math.nan, math.nan, math.nan)
    monkeypatch.setattr(verify, "iso_g_act", lambda *args, **kwargs: nan)
    argv = ["verify", "--suite", "orbits", "--trials", "10"]
    code, out, _ = run_cli(capsys, monkeypatch, argv + ["--format", "json"])
    assert code == 1

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    rows = {r["name"]: r for r in json.loads(out, parse_constant=reject)}
    assert rows["orbit-grid-oracle"]["value"] is None and rows["orbit-grid-oracle"]["pass"] is False
    assert rows["orbit-real-axis"]["value"] == 0.0 and rows["orbit-real-axis"]["pass"] is True


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


@pytest.mark.parametrize("argv", [["--a", "[5,0,0,0]"],
                                  ["--kind", "geodesic", "--a", "[0.3,0,0,0]"]])
def test_table_rejects_a_base_point_off_the_orbit_kind(capsys, monkeypatch, argv):
    # --a was once dropped without a word unless --kind orbit
    code, out, err = run_cli(capsys, monkeypatch, ["table"] + argv)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "--a" in err and "--kind" in err


def test_table_orbit_defaults_to_the_origin(capsys, monkeypatch):
    argv = ["--u", "[0,1,0,0]", "--t-min", "1", "--t-max", "2", "--steps", "2"]
    _, origin, _ = run_cli(capsys, monkeypatch, ["table", "--kind", "orbit"] + argv)
    _, geodesic, _ = run_cli(capsys, monkeypatch, ["table"] + argv)
    assert origin == geodesic


def test_table_rejects_bad_steps(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["table", "--steps", "1"])
    assert code == 2


# Modules that no per-call command may load: numpy, the worker pool and the
# star calculus come with verify, scipy only with the test suite's own
# oracles, and no module of the package imports dataclasses.
NEVER_PER_CALL = {"numpy", "scipy", "multiprocessing", "dataclasses",
                  "sliceball.verify", "sliceball.starpoly"}
_MAT = mat_to_list(hyperbolic(0.5))


@pytest.mark.parametrize("argv, stdin, unused", [
    (None, None, set()),
    (["check", "--what", "sp11"], _MAT,
     {"sliceball.lie", "sliceball.metrics", "sliceball.mobius"}),
    (["check", "--what", "o11"], _MAT, {"sliceball.metrics", "sliceball.mobius"}),
    (["check", "--what", "centralizer:sp1I2"], _MAT,
     {"sliceball.metrics", "sliceball.mobius"}),
    (["mobius", "--kind", "regular"], {"matrix": _MAT, "point": [0.1, 0.2, 0, 0]},
     {"sliceball.lie", "sliceball.metrics"}),
    (["decompose", "--mode", "slice"], _MAT, {"sliceball.metrics", "sliceball.mobius"}),
    (["decompose", "--mode", "symm"], _MAT, {"sliceball.metrics", "sliceball.mobius"}),
    (["table", "--kind", "orbit", "--a", "[0.3,0,0,0]"], None, {"sliceball.lie"}),
], ids=["import", "check-sp11", "check-o11", "check-centralizer", "mobius", "decompose-slice",
        "decompose-symm", "table"])
def test_each_command_loads_only_its_modules(argv, stdin, unused):
    # each command runs in a fresh interpreter, since any module that one
    # command loads would stay loaded for the next
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = textwrap.dedent(f"""
        import io, json, sys
        import sliceball.cli
        if {argv!r} is not None:
            sys.stdin = io.StringIO(json.dumps({stdin!r}))
            assert sliceball.cli.main({argv!r}) == 0
        print(sorted(m for m in sys.modules if m in {sorted(NEVER_PER_CALL | unused)!r}),
              file=sys.stderr)
        """)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[]"


def _sites(node, match, where="<module>"):
    """Yield the enclosing [Class.]function name of every node below node that
    match accepts."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            name = child.name if where == "<module>" else f"{where}.{child.name}"
            yield from _sites(child, match, name)
            continue
        if match(child):
            yield where
        yield from _sites(child, match, where)


def _package_sites(match):
    """The (module, enclosing name) pairs of src/sliceball where match accepts a node."""
    package = Path(__file__).resolve().parents[1] / "src" / "sliceball"
    return {(path.stem, where) for path in package.glob("*.py")
            for where in _sites(ast.parse(path.read_text(encoding="utf-8")), match)}


def _imports_numpy(node):
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        modules = [node.module or ""]
    else:
        return False
    return any(m == "numpy" or m.startswith("numpy.") for m in modules)


def test_numpy_is_imported_only_where_the_readme_lists_it():
    # the cold-start paragraph of the README names each of these
    assert _package_sites(_imports_numpy) == {
        ("verify", "<module>"), ("hmat", "psi_embed"), ("starpoly", "quadratic_root_in_ball")}


def test_no_constructor_promotes_a_real():
    # the README's scalar-core contract: every matrix and polynomial slot holds
    # a Quaternion as given, so the package defines, imports and calls no as_quat
    package = Path(__file__).resolve().parents[1] / "src" / "sliceball"
    hits = [(path.stem, node.lineno) for path in package.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if "as_quat" in (getattr(node, "name", None), getattr(node, "id", None),
                             getattr(node, "attr", None))]
    assert hits == []


def _bound_names(node):
    """The names node binds: a def or class, an assignment target, or an import."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return {node.id}
    if isinstance(node, ast.alias):
        return {node.asname or node.name}
    return set()


def test_only_the_cli_knows_the_wire_format():
    # the JSON readers and writers live in sliceball.cli alone, with or without a
    # leading underscore
    package = Path(__file__).resolve().parents[1] / "src" / "sliceball"
    names = {"quat_to_list", "quat_from_list", "mat_from_list", "fact_to_dict"}
    hits = [(path.stem, node.lineno) for path in package.glob("*.py") if path.stem != "cli"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if names & {n.lstrip("_") for n in _bound_names(node)}]
    assert hits == []


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
    assert "48/48 checks passed" in proc.stdout
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


def _nearly_real(a, entry: str, part: str, size: float) -> str:
    """The matrix a as JSON, with size added to one imaginary part of one entry."""
    mat = mat_to_list(a)
    mat[int(entry[0]) - 1][int(entry[1]) - 1]["wxyz".index(part)] += size
    return json.dumps(mat)


def _check_passes(what: str, stdin: str) -> bool:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(out), redirect_stderr(err):
        code = main(["check", "--what", what])
    assert code in (0, 1), err.getvalue()
    return code == 0


def test_check_o11_decides_realness_by_the_centralizer_rule():
    # 6e-13 on the i part of m11 passed the old im_norm test of o11, while its
    # commutator with J I2 is 1.2e-12, past the centralizer tolerance
    stdin = _nearly_real(hyperbolic(0.5), "11", "x", 6e-13)
    assert _check_passes("sp11", stdin)
    assert not _check_passes("centralizer:sp1I2", stdin)
    assert not _check_passes("o11", stdin)


@settings(max_examples=60, deadline=None)
@given(t=st.floats(-3.0, 3.0), eps=st.sampled_from([1.0, -1.0]), reflected=st.booleans(),
       entry=st.sampled_from(["11", "12", "21", "22"]), part=st.sampled_from("xyz"),
       size=st.floats(0.0, 2e-12))
def test_check_o11_passes_iff_sp1I2_and_sp11_pass(t, eps, reflected, entry, part, size):
    a = hyperbolic(t) * eps
    if reflected:
        a = a @ I11
    stdin = _nearly_real(a, entry, part, size)
    assert _check_passes("o11", stdin) == (_check_passes("centralizer:sp1I2", stdin)
                                           and _check_passes("sp11", stdin))


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


@pytest.mark.parametrize("mode", ["slice", "symm"])
def test_decompose_past_the_squared_overflow(capsys, monkeypatch, mode):
    # exp(360 j): finite entries whose squared norm overflows, so membership is undecidable
    code, out, err = run_cli(capsys, monkeypatch, ["decompose", "--mode", mode],
                             stdin=json.dumps(mat_to_list(exp_m(J * 360.0))))
    assert code == 1 and out == ""
    assert "group membership cannot be decided in doubles" in err and "355.584" in err


@pytest.mark.parametrize("mode", ["slice", "symm"])
@pytest.mark.parametrize("mat", [
    exp_m(J * 300.0),  # its defect cancels exactly
    symm_compose(SymmFactorization(sgn(Quaternion(1, 2, 3, 4)), sgn(Quaternion(-1, 0.5, 2, 1)),
                                   sgn(Quaternion(0, 1, -2, 3)) * 300.0)),  # roundoff near 1e244
], ids=["exp300j", "generic300"])
def test_decompose_a_member_below_the_squared_overflow(capsys, monkeypatch, mode, mat):
    # orbit distance 300: the entries' squared norms stay finite, so the gate decides
    code, out, err = run_cli(capsys, monkeypatch, ["decompose", "--mode", mode, "--format", "json"],
                             stdin=json.dumps(mat_to_list(mat)))
    assert code == 0 and err == ""
    assert abs(Quaternion(*json.loads(out)["X"]).norm() - 300.0) <= 1e-12 * 300.0


@pytest.mark.parametrize("kind", ["classical", "regular"])
def test_mobius_refuses_a_far_member_it_cannot_apply(capsys, monkeypatch, kind):
    # exp(185 j) passes the gate; the classical image rounds onto the sphere and the
    # regular map's f^s(q) overflows when squared
    payload = {"matrix": mat_to_list(exp_m(J * 185.0)), "point": [0.1, 0, 0, 0]}
    code, out, err = run_cli(capsys, monkeypatch, ["mobius", "--kind", kind, "--format", "json"],
                             stdin=json.dumps(payload))
    assert code == 1 and out == ""
    assert "domain error" in err


@pytest.mark.parametrize("kind", ["classical", "regular"])
@pytest.mark.parametrize("point", [[math.nan, 0, 0, 0], [0, math.inf, 0, 0], [2, 0, 0, 0]])
def test_mobius_rejects_points_off_the_ball(capsys, monkeypatch, kind, point):
    payload = {"matrix": mat_to_list(IDENTITY), "point": point}
    code, out, err = run_cli(capsys, monkeypatch, ["mobius", "--kind", kind, "--format", "json"],
                             stdin=json.dumps(payload))
    assert code == 1 and out == ""
    assert "domain error" in err


@pytest.mark.parametrize("kind, x", [("classical", 0.5), ("regular", 0.3)])
def test_mobius_rejects_an_image_rounded_onto_the_boundary(capsys, monkeypatch, kind, x):
    # H(20) sends these points within an ulp of 1, where the image rounds to |w| = 1
    payload = {"matrix": mat_to_list(hyperbolic(20.0)), "point": [x, 0, 0, 0]}
    code, out, err = run_cli(capsys, monkeypatch, ["mobius", "--kind", kind, "--format", "json"],
                             stdin=json.dumps(payload))
    assert code == 1 and out == ""
    assert "domain error" in err and "open ball" in err


@pytest.mark.parametrize("argv, stdin", [
    (["check", "--what", "sp11"],
     '[[["1",0,0,0],[0,0,0,0]],[[0,0,0,0],[1,0,0,0]]]'),
    (["check", "--what", "sp11"],
     '[[[true,0,0,0],[0,0,0,0]],[[0,0,0,0],[1,0,0,0]]]'),
    (["mobius"], json.dumps({"matrix": mat_to_list(IDENTITY), "point": [0, False, 0, 0]})),
    (["table", "--u", '["1",0,0,0]'], None),
])
def test_non_numeric_coordinates_are_input_errors(capsys, monkeypatch, argv, stdin):
    code, out, err = run_cli(capsys, monkeypatch, argv, stdin=stdin)
    assert code == 2 and out == ""
    assert err.startswith("input error:")


def test_json_output_never_carries_nan(capsys, monkeypatch):
    mat = mat_to_list(IDENTITY)
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


HUGE = int("1" + "0" * 400)  # beyond the double range


@pytest.mark.parametrize("argv, stdin", [
    (["check", "--what", "sp11"], json.dumps([[[HUGE, 0, 0, 0], [0, 0, 0, 0]],
                                              [[0, 0, 0, 0], [1, 0, 0, 0]]])),
    (["mobius"], json.dumps({"matrix": mat_to_list(IDENTITY), "point": [0, -HUGE, 0, 0]})),
    (["table", "--u", f"[{HUGE},0,0,0]"], None),
], ids=["check", "mobius", "table"])
def test_a_huge_integer_coordinate_is_an_input_error(capsys, monkeypatch, argv, stdin):
    # float() of such an integer raises OverflowError, which once ended in a traceback
    code, out, err = run_cli(capsys, monkeypatch, argv, stdin=stdin)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "double range" in err


@pytest.mark.parametrize("bounds", [["--t-min=-1", "--t-max=1e400"], ["--t-min=nan"],
                                    ["--t-max=-inf"], ["--t-min=-1e308", "--t-max=1e308"]])
def test_table_rejects_a_non_finite_range(capsys, monkeypatch, bounds):
    code, out, err = run_cli(capsys, monkeypatch, ["table", "--steps", "3"] + bounds)
    assert code == 1 and out == ""
    assert "domain error" in err and "finite" in err


@pytest.mark.parametrize("kind", ["geodesic", "orbit"])
def test_table_rejects_a_point_rounded_onto_the_boundary(capsys, monkeypatch, kind):
    # at t = 20 the orbit point rounds onto the unit sphere
    code, out, err = run_cli(capsys, monkeypatch, ["table", "--kind", kind, "--t-min=0",
                                                   "--t-max=20", "--steps", "2"])
    assert code == 1 and out == ""
    assert "domain error" in err and "open ball" in err


_EDGE_TABLES = {"geodesic": ["--kind", "geodesic"],
                "orbit": ["--kind", "orbit", "--u", "[0,1,0,0]", "--a", "[0,-0.9,0,0]"]}


@pytest.mark.parametrize("t_max", ["19.5", "300"])
@pytest.mark.parametrize("kind", ["geodesic", "orbit"])
def test_table_rejects_a_row_whose_tanh_rounds_to_one(capsys, monkeypatch, kind, t_max):
    # iso_g_act's rule: at these t every point lies within an ulp of the sphere
    code, out, err = run_cli(capsys, monkeypatch, ["table", *_EDGE_TABLES[kind], "--t-min=0",
                                                   f"--t-max={t_max}", "--steps", "2"])
    assert code == 1 and out == ""
    assert err.startswith("domain error:") and "open ball" in err and "tanh" in err


@pytest.mark.parametrize("kind", ["geodesic", "orbit"])
def test_table_prints_the_rows_below_the_tanh_edge(capsys, monkeypatch, kind):
    code, out, _ = run_cli(capsys, monkeypatch, ["table", *_EDGE_TABLES[kind], "--t-min=0",
                                                 "--t-max=18.5", "--steps", "2"])
    assert code == 0 and out.splitlines()[2].startswith("18.5,")


@pytest.mark.parametrize("t_max", ["400", "1e300"])
@pytest.mark.parametrize("kind", ["geodesic", "orbit"])
def test_table_rejects_a_t_past_the_float_orbit(capsys, monkeypatch, kind, t_max):
    code, out, err = run_cli(capsys, monkeypatch, ["table", "--kind", kind, "--t-min=0",
                                                   f"--t-max={t_max}", "--steps", "2"])
    assert code == 1 and out == ""
    assert err.startswith("domain error:")


@pytest.mark.parametrize("what, stdin", [
    ("algebra", "[[[0,0,0,0],[0,0,0,0]],[[0,0,0,0],[0,NaN,0,0]]]"),
    ("centralizer:sp1x1", "[[[1,0,0,0],[0,0,0,0]],[[0,0,0,0],[NaN,0,0,0]]]"),
    ("centralizer:sp1I2", "[[[1,0,0,0],[0,0,0,0]],[[0,0,0,0],[NaN,0,0,0]]]"),
], ids=["algebra", "sp1x1", "sp1I2"])
@pytest.mark.parametrize("fmt", ["json", "human"])
def test_a_nan_entry_fails_the_check(capsys, monkeypatch, what, stdin, fmt):
    # max() dropped a NaN that was not first, so these passed with residual 0
    code, out, _ = run_cli(capsys, monkeypatch, ["check", "--what", what, "--format", fmt],
                           stdin=stdin)
    assert code == 1
    if fmt == "json":
        assert out == ""  # a NaN residual is not valid JSON
    else:
        assert out == f"FAIL {what} residual=nan\n"


DEEP = "[" * 100000  # deeper than the interpreter's recursion limit


@pytest.mark.parametrize("argv, stdin", [
    (["check", "--what", "sp11"], DEEP), (["mobius"], DEEP),
    (["decompose", "--mode", "symm"], DEEP),
    (["table", "--u", DEEP], None), (["table", "--kind", "orbit", "--a", DEEP], None),
], ids=["check-stdin", "mobius-stdin", "decompose-stdin", "table-u", "table-a"])
def test_deeply_nested_json_is_an_input_error(capsys, monkeypatch, argv, stdin):
    # json raises RecursionError here, which once ended in a traceback
    code, out, err = run_cli(capsys, monkeypatch, argv, stdin=stdin)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "nested too deeply" in err


@pytest.mark.parametrize("argv", [
    ["check", "--what", "sp11", "--file", "mat.json"], ["mobius", "--file", "mat.json"],
    ["decompose", "--mode", "symm", "--file", "mat.json"],
    ["check", "--what", "sp11", "--format", "csv"], ["mobius", "--format", "csv"],
    ["decompose", "--mode", "symm", "--format", "csv"], ["verify", "--format", "csv"],
], ids=["check-file", "mobius-file", "decompose-file", "check-csv", "mobius-csv",
        "decompose-csv", "verify-csv"])
def test_removed_options_are_usage_errors(capsys, monkeypatch, argv):
    # input comes from stdin only, and the machine format is json only
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, monkeypatch, argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2 and err.startswith("usage: sliceball")
    assert "unrecognized arguments: --file" in err or "invalid choice: 'csv'" in err


# The wire-format fuzz: every input command, in both formats, on random JSON
# bodies. A body may carry NaN, infinities, huge numbers, bools, strings, null,
# wrong shapes or no point; the exit code stays 0, 1 or 2 and json stays strict.
_FUZZ_COMMANDS = ([["check", "--what", w] for w in ["sp11", "algebra", "o11"]
                   + [f"centralizer:{s}" for s in CENTRALIZER_SUBGROUPS]]
                  + [["mobius", "--kind", k] for k in ("classical", "regular")]
                  + [["decompose", "--mode", m] for m in ("symm", "slice")])
_SCALARS = st.one_of(st.floats(-2, 2), st.floats(), st.integers(),
                     st.sampled_from([1e308, -1e308, 10 ** 400]),
                     st.booleans(), st.text(max_size=2), st.none())
_QUATS = st.one_of(st.lists(st.floats(-1, 1), min_size=4, max_size=4),
                   st.lists(_SCALARS, min_size=4, max_size=4), st.lists(_SCALARS, max_size=5),
                   _SCALARS)
# diag(u, v) exp(X) with unit u, v: in the group, and far out along it for the larger X
_GROUP = st.builds(lambda u, v, x: mat_to_list(diag(sgn(u), sgn(v)) @ exp_m(x)),
                   *[st.builds(Quaternion, *[st.floats(-12, 12)] * 4)] * 3)
_POINTS = st.lists(st.floats(-1.2, 1.2), min_size=4, max_size=4)
_MATS = st.one_of(st.lists(st.lists(_QUATS, min_size=2, max_size=2), min_size=2, max_size=2),
                  st.lists(st.lists(_QUATS, max_size=3), max_size=3), _QUATS)
_HUGE = [[[10 ** 400, 0, 0, 0], [0, 0, 0, 0]], [[0, 0, 0, 0], [1, 0, 0, 0]]]
_HUGE_POINT = json.dumps({"matrix": mat_to_list(IDENTITY), "point": [0, 10 ** 400, 0, 0]})
_AT_EXIT_2 = {json.dumps(_HUGE), _HUGE_POINT, DEEP}


def _fuzz_case(argv):
    """A command and a JSON body for it: well formed (a group matrix, with a point for
    mobius) or free form, where mobius may also get a bare matrix or no point."""
    bodies = [_GROUP, _MATS]
    if argv[0] == "mobius":
        bodies = [st.fixed_dictionaries({"matrix": _GROUP, "point": _POINTS}),
                  st.fixed_dictionaries({"matrix": _MATS}, optional={"point": _QUATS}), _MATS]
    # sampled_from draws the bodies evenly, which one_of does not
    body = st.sampled_from(bodies).flatmap(lambda b: b)
    return st.tuples(st.just(argv), body.map(json.dumps))


def _reject_constant(constant):
    raise ValueError(f"{constant} is not JSON")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.sampled_from(_FUZZ_COMMANDS).flatmap(_fuzz_case),
       fmt=st.sampled_from(["json", "human"]))
@example(case=(["check", "--what", "sp11"], json.dumps(_HUGE)), fmt="json")
@example(case=(["decompose", "--mode", "slice"], json.dumps(_HUGE)), fmt="human")
@example(case=(["mobius", "--kind", "regular"], _HUGE_POINT), fmt="json")
@example(case=(["check", "--what", "o11"], DEEP), fmt="json")
@example(case=(["mobius", "--kind", "classical"], DEEP), fmt="human")
def test_wire_format_fuzz(case, fmt):
    argv, body = case
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(body)), redirect_stdout(out), redirect_stderr(err):
        code = main(argv + ["--format", fmt])
    assert code in ((2,) if body in _AT_EXIT_2 else (0, 1, 2))
    if code == 2:
        assert err.getvalue().startswith("input error:") and out.getvalue() == ""
    if fmt == "json" and out.getvalue():
        json.loads(out.getvalue(), parse_constant=_reject_constant)
