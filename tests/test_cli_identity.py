"""The byte-identity harness on two cases: a tree against itself and against a
copy whose reports print one digit fewer."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_identity", ROOT / "tools" / "cli_identity.py")
cli_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_identity)

CASES = [(["table", "--steps", "5"], ""), (["table", "--steps", "1"], "")]


def test_a_tree_matches_itself():
    assert cli_identity.compare(ROOT, ROOT, CASES) == []


def test_a_changed_digit_count_differs(tmp_path):
    shutil.copytree(ROOT / "src" / "sliceball", tmp_path / "src" / "sliceball",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "sliceball" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert '".17g"' in text
    cli.write_text(text.replace('".17g"', '".16g"'), encoding="utf-8")
    differ = cli_identity.compare(ROOT, tmp_path, CASES)
    assert [(d["argv"], list(d["change"])) for d in differ] == [(CASES[0][0], ["stdout"])]
