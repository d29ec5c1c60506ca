"""Compare the command line reports of two source trees, case by case.

    python3 tools/cli_identity.py PARENT CHANGE

PARENT and CHANGE are checkouts of the repository, each holding
src/sliceball. Both run the same cases, each in a fresh process:

- ``verify --suite all --seed S`` for S = 1..8, in the json and human
  formats;
- ``verify --suite S --trials 3 --seed 1`` for each named suite S of this
  tree's ``sliceball.SUITES``, in both formats;
- every command of ``bench/workloads.CliOneshot`` for seeds 1..8, in both
  formats (the ``table`` commands, which have no format, once per seed);
- a fixed set of malformed inputs: bad JSON, wrong shapes, strings, bools,
  null, NaN, 1e308, a 400-digit integer, nesting deeper than the interpreter's
  stack, bad ``table`` arguments, and two tables whose last row lies past
  the ``|tanh t|`` edge;
- the group gate's outcomes through ``check --what sp11``, ``check --what
  o11`` and both ``decompose`` modes, in both formats: ``exp(7.5 j)``, which
  passes by column scaling; ``exp(360 j)`` written out, finite with an
  overflowing squared entry norm; ``diag(2, 1)``; and an entry ``1e400``,
  which JSON reads as inf.

A case differs when its stdout, exit code or stderr differs; verify's
``wall time:`` line is left out of stderr. One JSON line is printed per
differing case, then, from the json verify reports at the registered trial
counts, one line per check with each tree's least headroom over the seeds and
CHANGE minus PARENT. Headroom is ``log10(tol/value)`` for ``<=`` and
``log10(value/tol)`` for ``>=`` decades; null at a value or tolerance of 0;
-Infinity at a null (failing) or NaN value.
Next come a count of the checks whose headroom fell by more than FELL_DECADES
and a last line ``{"cases": N, "differ": K}``. The exit code is 1 when K > 0.
Takes no options; the oneshot commands need numpy. The commands run with
PYTHONDONTWRITEBYTECODE=1, so neither tree gains a bytecode cache.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 9)
FORMATS = ("json", "human")
TIMEOUT_S = 300
WORKERS = 2
SHOWN = 300  # characters of each differing field printed
FELL_DECADES = 0.3

_IDENTITY = [[[1, 0, 0, 0], [0, 0, 0, 0]], [[0, 0, 0, 0], [1, 0, 0, 0]]]
_HUGE = int("1" + "0" * 400)  # beyond the double range
_DEEP = "[" * 100000  # deeper than the interpreter's recursion limit


def _with_entry(value) -> str:
    """The identity matrix as JSON, with its first coordinate replaced by value."""
    mat = [[list(q) for q in row] for row in _IDENTITY]
    mat[0][0][0] = value
    return json.dumps(mat)


def _exp_j(r: float) -> str:
    """exp(r j) = [[cosh r, -sinh r j], [sinh r j, cosh r]] as JSON."""
    c, s = math.cosh(r), math.sinh(r)
    return json.dumps([[[c, 0, 0, 0], [0, 0, -s, 0]], [[0, 0, s, 0], [c, 0, 0, 0]]])


def verify_cases() -> list[tuple[list[str], str]]:
    sys.path.insert(0, str(ROOT / "src"))
    from sliceball import SUITES
    full = [["--suite", "all", "--seed", str(s)] for s in SEEDS]
    short = [["--suite", suite, "--trials", "3", "--seed", "1"]
             for suite in SUITES if suite != "all"]
    return [(["verify", *args, "--format", f], "") for args in full + short for f in FORMATS]


def oneshot_cases() -> list[tuple[list[str], str]]:
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import CliOneshot
    cases = []
    for seed in SEEDS:
        for argv, stdin, _ in CliOneshot(ROOT, seed).commands:
            if "--format" not in argv:
                cases.append((argv, stdin))
                continue
            at = argv.index("--format") + 1
            cases += [(argv[:at] + [f] + argv[at + 1:], stdin) for f in FORMATS]
    return cases


def malformed_cases() -> list[tuple[list[str], str]]:
    bodies = ["", "{", "not json", "null", "[1, 2]", "[[1, 2], [3]]",
              json.dumps([[[1, 0, 0], [0, 0, 0, 0]], [[0, 0, 0, 0], [1, 0, 0, 0]]]),
              _with_entry("1"), _with_entry(True), _with_entry(None),
              _with_entry(float("nan")), _with_entry(1e308), _with_entry(_HUGE), _DEEP]
    commands = [["check", "--what", "sp11"], ["check", "--what", "o11"],
                ["check", "--what", "centralizer:sp1x1"], ["decompose", "--mode", "symm"],
                ["decompose", "--mode", "slice"]]
    cases = [(argv, body) for argv in commands for body in bodies]
    points = [None, "1", [0, 0, 0], [True, 0, 0, 0], [float("nan"), 0, 0, 0],
              [1e308, 0, 0, 0], [0, _HUGE, 0, 0], [2, 0, 0, 0]]
    cases += [(["mobius"], json.dumps({"matrix": _IDENTITY, "point": p})) for p in points]
    cases += [(["mobius"], "{}"), (["mobius"], _DEEP)]
    tables = [["--u", "[2,0,0,0]"], ["--u", "x"], ["--u", _DEEP], ["--steps", "1"],
              ["--t-min=nan"], ["--t-min=-1", "--t-max=1e400"],
              ["--t-min=-1e308", "--t-max=1e308"], ["--kind", "orbit", "--a", "[1,0,0,0]"],
              ["--kind", "orbit", "--a", f"[{_HUGE},0,0,0]"], ["--a", "[5,0,0,0]"],
              ["--kind", "geodesic", "--a", "[0.3,0,0,0]"], ["--t-min=0", "--t-max=19.5", "--steps=2"],
              ["--t-min=0", "--t-max=300", "--steps=2"]]
    cases += [(["table"] + t, "") for t in tables]
    return cases


def gate_cases() -> list[tuple[list[str], str]]:
    bodies = [_exp_j(7.5), _exp_j(360.0), _with_entry(2),
              "[[[1e400, 0, 0, 0], [0, 0, 0, 0]], [[0, 0, 0, 0], [1, 0, 0, 0]]]"]
    commands = [["check", "--what", "sp11"], ["check", "--what", "o11"],
                ["decompose", "--mode", "symm"], ["decompose", "--mode", "slice"]]
    return [(argv + ["--format", f], body) for body in bodies for argv in commands
            for f in FORMATS]


def run(tree: Path, argv: list[str], stdin: str) -> dict:
    proc = subprocess.run([sys.executable, "-m", "sliceball.cli", *argv], input=stdin,
                          capture_output=True, text=True, cwd=tree, timeout=TIMEOUT_S,
                          env=dict(os.environ, PYTHONPATH=str(tree / "src"),
                                   PYTHONDONTWRITEBYTECODE="1"))
    stderr = "".join(line for line in proc.stderr.splitlines(keepends=True)
                     if not line.startswith("wall time:"))
    return {"stdout": proc.stdout, "code": proc.returncode, "stderr": stderr}


def _report(tree: Path, argv: list[str], out: dict) -> list[dict]:
    """The JSON report of one verify run; a failing check still reports."""
    if out["code"] in (0, 1):
        with suppress(json.JSONDecodeError):
            return json.loads(out["stdout"])
    raise RuntimeError(f"{' '.join(argv)} in {tree} exited {out['code']}: "
                       f"{out['stderr'].strip()}")


def compare(parent: Path, change: Path, cases) -> tuple[list[dict], tuple[list, list]]:
    """One record per case whose stdout, exit code or stderr differs, and each
    tree's reports of the json verify cases at the registered trial counts, in
    case order."""
    with ThreadPoolExecutor(WORKERS) as pool:
        outs = list(pool.map(lambda c: (run(parent, *c), run(change, *c)), cases))
    differ, reports = [], ([], [])
    for (argv, stdin), (a, b) in zip(cases, outs):
        if argv[0] == "verify" and argv[-2:] == ["--format", "json"] and "--trials" not in argv:
            for side, tree, out in zip(reports, (parent, change), (a, b)):
                side.append(_report(tree, argv, out))
        fields = [k for k in a if a[k] != b[k]]
        if fields:
            differ.append({"argv": [v[:SHOWN] for v in argv], "stdin": stdin[:SHOWN],
                           "parent": {k: a[k] if k == "code" else a[k][:SHOWN] for k in fields},
                           "change": {k: b[k] if k == "code" else b[k][:SHOWN] for k in fields}})
    return differ, reports


def headroom(value: float | None, tol: float, op: str) -> float | None:
    """Decades between a check's value and its tolerance; positive inside it."""
    if value == 0 or tol == 0:
        return None
    if value is None or math.isnan(value):
        return -math.inf
    ratio = tol / value if op == "<=" else value / tol
    return math.log10(ratio) if ratio > 0 else -math.inf


def min_headrooms(reports: list[list[dict]]) -> dict[str, float | None]:
    """Each check's smallest non-null headroom over the reports, in registry order."""
    runs: dict[str, list] = {}
    for report in reports:
        for r in report:
            runs.setdefault(r["name"], []).append(headroom(r["value"], r["tol"], r["op"]))
    return {name: min((h for h in hs if h is not None), default=None)
            for name, hs in runs.items()}


def headroom_rows(parent: dict, change: dict) -> list[dict]:
    if list(parent) != list(change):
        raise RuntimeError("the two trees register different checks")
    return [{"check": n, "parent": parent[n], "change": change[n],
             "delta": None if parent[n] is None or change[n] is None else change[n] - parent[n]}
            for n in parent]


def totals(rows: list[dict]) -> dict:
    fell = [r["check"] for r in rows if r["delta"] is not None and r["delta"] < -FELL_DECADES]
    return {"checks": len(rows), "fell": len(fell), "fell_checks": fell}


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/cli_identity.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in args)
    cases = verify_cases() + oneshot_cases() + malformed_cases() + gate_cases()
    differ, reports = compare(parent, change, cases)
    for d in differ:
        print(json.dumps(d, sort_keys=True))
    rows = headroom_rows(*(min_headrooms(r) for r in reports))
    for row in rows:
        print(json.dumps(row))
    print(json.dumps(totals(rows)))
    print(json.dumps({"cases": len(cases), "differ": len(differ)}))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
