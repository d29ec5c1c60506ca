"""The byte-identity harness: a tree against itself and against a copy whose
reports print one digit fewer, and the headroom it reads from verify's reports."""

import importlib.util
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
