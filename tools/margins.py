"""Each verify check's headroom to its tolerance in two source trees.

    python3 tools/margins.py PARENT CHANGE

PARENT and CHANGE are checkouts of the repository, each holding
src/sliceball. Each tree runs ``verify --suite all --format json`` for seeds
1..8, one fresh process per seed. A check's headroom in one run is how many
decades its value sits inside the tolerance: ``log10(tol/value)`` for a
``<=`` check and ``log10(value/tol)`` for a ``>=`` check, null when the value
or the tolerance is 0, and -Infinity for a NaN value or a ``<=`` value of
infinity. One JSON line per check gives each side's minimum headroom over the
seeds (null when every run is null) and the change, CHANGE minus PARENT. A
last line counts the checks and those whose headroom fell by more than
FELL_DECADES. Takes no options. Standard library only; the verify runs import
numpy, as verify does.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

SEEDS = range(1, 9)
SIDES = ("parent", "change")
FELL_DECADES = 0.3
TIMEOUT_S = 300


def headroom(value: float, tol: float, op: str) -> float | None:
    """Decades between a check's value and its tolerance; positive inside it."""
    if value == 0 or tol == 0:
        return None
    if math.isnan(value):
        return -math.inf
    ratio = tol / value if op == "<=" else value / tol
    return math.log10(ratio) if ratio > 0 else -math.inf


def run_verify(tree: Path, seed: int) -> list[dict]:
    """The JSON report of one verify run; a failing check still reports."""
    proc = subprocess.run(
        [sys.executable, "-m", "sliceball.cli", "verify", "--suite", "all",
         "--seed", str(seed), "--format", "json"],
        capture_output=True, text=True, cwd=tree, timeout=TIMEOUT_S,
        env=dict(os.environ, PYTHONPATH=str(tree / "src")))
    if proc.returncode not in (0, 1) or not proc.stdout:
        raise RuntimeError(f"verify --seed {seed} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def min_headrooms(reports: list[list[dict]]) -> dict[str, float | None]:
    """Each check's smallest non-null headroom over the reports, in registry order."""
    runs: dict[str, list] = {}
    for report in reports:
        for r in report:
            runs.setdefault(r["name"], []).append(headroom(r["value"], r["tol"], r["op"]))
    return {name: min((h for h in hs if h is not None), default=None)
            for name, hs in runs.items()}


def compare(parent: dict, change: dict) -> list[dict]:
    if list(parent) != list(change):
        raise RuntimeError("the two trees register different checks")
    rows = []
    for name in parent:
        a, b = parent[name], change[name]
        rows.append({"check": name, "parent": a, "change": b,
                     "delta": None if a is None or b is None else b - a})
    return rows


def totals(rows: list[dict]) -> dict:
    fell = [r["check"] for r in rows if r["delta"] is not None and r["delta"] < -FELL_DECADES]
    return {"checks": len(rows), "fell": len(fell), "fell_checks": fell}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/margins.py PARENT CHANGE", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in args]
    sides = [min_headrooms([run_verify(tree, s) for s in SEEDS]) for tree in trees]
    rows = compare(*sides)
    for row in rows:
        print(json.dumps(row))
    print(json.dumps(totals(rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
