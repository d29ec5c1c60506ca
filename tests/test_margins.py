"""The headroom ledger's arithmetic, on hand-made reports."""

import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("margins", ROOT / "tools" / "margins.py")
margins = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(margins)


def test_headroom_in_decades():
    assert math.isclose(margins.headroom(1e-15, 1e-12, "<="), 3.0)
    assert math.isclose(margins.headroom(0.5, 0.05, ">="), 1.0)
    assert math.isclose(margins.headroom(2e-12, 1e-12, "<="), -math.log10(2.0))
    assert margins.headroom(0.0, 1e-12, "<=") is None
    assert margins.headroom(1e-15, 0.0, "<=") is None
    assert margins.headroom(math.nan, 1e-12, "<=") == -math.inf
    assert margins.headroom(math.inf, 1e-12, "<=") == -math.inf
    assert margins.headroom(-math.inf, 0.5, ">=") == -math.inf


def test_minimum_over_seeds_and_the_totals():
    def report(a, b):
        return [{"name": "a", "value": a, "tol": 1e-12, "op": "<="},
                {"name": "b", "value": b, "tol": 1e-12, "op": "<="}]
    parent = margins.min_headrooms([report(1e-15, 0.0), report(1e-14, 0.0)])
    assert math.isclose(parent["a"], 2.0) and parent["b"] is None
    change = margins.min_headrooms([report(1e-13, 0.0), report(0.0, 1e-16)])
    assert math.isclose(change["a"], 1.0) and math.isclose(change["b"], 4.0)
    rows = margins.compare(parent, change)
    assert [r["check"] for r in rows] == ["a", "b"]
    assert math.isclose(rows[0]["delta"], -1.0) and rows[1]["delta"] is None
    assert margins.totals(rows) == {"checks": 2, "fell": 1, "fell_checks": ["a"]}
