"""The paired per-check timer on two checks, one rep, a tree against itself."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("verify_ab", ROOT / "tools" / "verify_ab.py")
verify_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verify_ab)


def test_pairs_two_checks_of_a_tree_with_itself():
    checks = ("metrics-differ-example", "quat-identities")
    rows = verify_ab.pair_times(ROOT, ROOT, checks, reps=1)
    assert [r["check"] for r in rows] == list(checks)
    for r in rows:
        assert r["same_value"]
        assert r["parent_min_ms"] == r["parent_median_ms"] >= 0.0
        assert r["change_min_ms"] == r["change_median_ms"] >= 0.0
    total = verify_ab.totals(rows)
    assert total["checks"] == 2 and total["same_values"]
    assert total["parent_min_sum_ms"] == sum(r["parent_min_ms"] for r in rows)


def test_workers_leave_no_bytecode_in_a_tree(tmp_path, monkeypatch):
    # a cache written by one run would spare the next runs of that tree their
    # compilation, whatever the environment the timer starts from
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    shutil.copytree(ROOT / "src" / "sliceball", tmp_path / "src" / "sliceball",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rows = verify_ab.pair_times(tmp_path, tmp_path, ("metrics-differ-example",), reps=1)
    assert rows[0]["same_value"]
    assert not list(tmp_path.rglob("__pycache__"))
