"""The headroom ledger of tools/cli_identity.py, on hand-made reports."""

import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_identity", ROOT / "tools" / "cli_identity.py")
cli_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_identity)


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
