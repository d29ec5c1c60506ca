"""The byte-identity harness: a tree against itself and against a copy whose
reports print one digit fewer, and the headroom it reads from verify's reports,
also on hand-made reports."""

import importlib.util
import math
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_identity", ROOT / "tools" / "cli_identity.py")
cli_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_identity)

CASES = [(["table", "--steps", "5"], ""), (["table", "--steps", "1"], "")]


def test_a_tree_matches_itself():
    assert cli_identity.compare(ROOT, ROOT, CASES) == ([], ([], []))


def test_a_tree_keeps_its_headroom():
    argv = ["verify", "--suite", "orbits", "--seed", "1", "--format", "json"]
    differ, reports = cli_identity.compare(ROOT, ROOT, [(argv, "")])
    assert differ == [] and [len(side) for side in reports] == [1, 1]
    rows = cli_identity.headroom_rows(*(cli_identity.min_headrooms(r) for r in reports))
    assert [r["check"] for r in rows] == ["orbit-real-axis", "orbit-invariance",
                                          "orbit-grid-oracle", "orbit-axis-example"]
    assert all(r["delta"] in (0.0, None) for r in rows)
    assert cli_identity.totals(rows) == {"checks": 4, "fell": 0, "fell_checks": []}


def test_a_short_run_stays_out_of_the_ledger():
    # headroom over 3 trials is not comparable with the registered trial counts
    argv = ["verify", "--suite", "orbits", "--trials", "3", "--seed", "1", "--format", "json"]
    assert cli_identity.compare(ROOT, ROOT, [(argv, "")]) == ([], ([], []))
    assert (argv, "") in cli_identity.verify_cases()


def test_a_changed_digit_count_differs(tmp_path):
    shutil.copytree(ROOT / "src" / "sliceball", tmp_path / "src" / "sliceball",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "sliceball" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert '".17g"' in text
    cli.write_text(text.replace('".17g"', '".16g"'), encoding="utf-8")
    differ, reports = cli_identity.compare(ROOT, tmp_path, CASES)
    assert reports == ([], [])
    assert [(d["argv"], list(d["change"])) for d in differ] == [(CASES[0][0], ["stdout"])]


def test_commands_leave_no_bytecode_in_a_tree(tmp_path, monkeypatch):
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    shutil.copytree(ROOT / "src" / "sliceball", tmp_path / "src" / "sliceball",
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert cli_identity.compare(tmp_path, tmp_path, CASES) == ([], ([], []))
    assert not list(tmp_path.rglob("__pycache__"))


def test_headroom_in_decades():
    assert math.isclose(cli_identity.headroom(1e-15, 1e-12, "<="), 3.0)
    assert math.isclose(cli_identity.headroom(0.5, 0.05, ">="), 1.0)
    assert math.isclose(cli_identity.headroom(2e-12, 1e-12, "<="), -math.log10(2.0))
    assert cli_identity.headroom(0.0, 1e-12, "<=") is None
    assert cli_identity.headroom(1e-15, 0.0, "<=") is None
    assert cli_identity.headroom(math.nan, 1e-12, "<=") == -math.inf
    assert cli_identity.headroom(math.inf, 1e-12, "<=") == -math.inf
    assert cli_identity.headroom(-math.inf, 0.5, ">=") == -math.inf
    assert cli_identity.headroom(None, 1e-12, "<=") == -math.inf  # a failing check's null
    assert cli_identity.headroom(None, 0.5, ">=") == -math.inf


def test_minimum_over_seeds_and_the_totals():
    def report(a, b):
        return [{"name": "a", "value": a, "tol": 1e-12, "op": "<="},
                {"name": "b", "value": b, "tol": 1e-12, "op": "<="}]
    parent = cli_identity.min_headrooms([report(1e-15, 0.0), report(1e-14, 0.0)])
    assert math.isclose(parent["a"], 2.0) and parent["b"] is None
    change = cli_identity.min_headrooms([report(1e-13, 0.0), report(0.0, 1e-16)])
    assert math.isclose(change["a"], 1.0) and math.isclose(change["b"], 4.0)
    rows = cli_identity.headroom_rows(parent, change)
    assert [r["check"] for r in rows] == ["a", "b"]
    assert math.isclose(rows[0]["delta"], -1.0) and rows[1]["delta"] is None
    assert cli_identity.totals(rows) == {"checks": 2, "fell": 1, "fell_checks": ["a"]}
