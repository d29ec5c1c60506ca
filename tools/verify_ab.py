"""Paired per-check CPU time of the verify suite in two source trees.

    python3 tools/verify_ab.py PARENT CHANGE

PARENT and CHANGE are checkouts of the repository, each holding
src/sliceball. One long-lived interpreter per tree imports its
``sliceball.verify`` once; the trees then take turns check by check, the
first side alternating, so both halves of a pair run under the same load.
Every check runs REPS times per tree with seed SEED and its registered trial
count, timed by the CPU seconds that ``run_check`` reports. One JSON line per
check gives each side's min and median in ms and whether both sides returned
the same value; a last line gives the sums of the minima and of the medians
over the checks and their relative changes. Takes no options. Standard
library only; the workers import numpy, as verify does, and run with
PYTHONDONTWRITEBYTECODE=1.

The warm per-check minima do not predict ``sliceball verify``, which runs
each check once, cold, in a forked worker after interpreter, numpy and pool
start-up: on a 2-core x86_64 box, a change whose minima fell by 9.5-12.0%
cut the ``verify-suite`` ``cpu_s`` of ``bench/run.py`` by 8.2%. Use this
tool to see which checks a change moves; an end-to-end speed claim rests on
paired ``bench/run.py`` runs.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

REPS = 6
SEED = 1
SIDES = ("parent", "change")

# Runs in each worker: announce the registry, then answer "index seed" lines
# with the check's CPU seconds and the repr of its value.
_WORKER = """
import json, sys
from sliceball import verify
print(json.dumps(verify.CHECK_NAMES), flush=True)
for line in sys.stdin:
    index, seed = map(int, line.split())
    result = verify.run_check(verify.CHECKS[index], seed, index)
    print(json.dumps([result.seconds, repr(result.value)]), flush=True)
"""


class Worker:
    """One interpreter with PYTHONPATH set to a tree's src. It writes no
    bytecode: a cache left in one tree would spare later runs of that tree
    their compilation, and bias every comparison after it."""

    def __init__(self, tree: Path):
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        self.proc = subprocess.Popen([sys.executable, "-c", _WORKER], cwd=tree, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.names = tuple(self._reply())

    def _reply(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"verify worker exited with {self.proc.wait()}")
        return json.loads(line)

    def run(self, index: int, seed: int) -> tuple[float, str]:
        self.proc.stdin.write(f"{index} {seed}\n")
        self.proc.stdin.flush()
        seconds, value = self._reply()
        return seconds, value

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def pair_times(parent: Path, change: Path, checks=None, reps: int = REPS) -> list[dict]:
    """One record per check: each side's min and median CPU ms over reps runs,
    and whether the two sides agreed on every value."""
    workers = {}
    try:
        for side, tree in zip(SIDES, (parent, change)):
            workers[side] = Worker(tree)
        names = workers["parent"].names
        if workers["change"].names != names:
            raise RuntimeError("the two trees register different checks")
        checks = names if checks is None else tuple(checks)
        times = {name: {side: [] for side in SIDES} for name in checks}
        values = {name: set() for name in checks}
        for rep in range(reps):
            for k, name in enumerate(checks):
                for side in (SIDES if (rep + k) % 2 == 0 else SIDES[::-1]):
                    seconds, value = workers[side].run(names.index(name), SEED)
                    times[name][side].append(1e3 * seconds)
                    values[name].add(value)
    finally:
        for worker in workers.values():
            worker.close()
    rows = []
    for name in checks:
        row = {"check": name}
        for side in SIDES:
            row[f"{side}_min_ms"] = min(times[name][side])
            row[f"{side}_median_ms"] = statistics.median(times[name][side])
        row["same_value"] = len(values[name]) == 1
        rows.append(row)
    return rows


def totals(rows: list[dict]) -> dict:
    out = {"checks": len(rows)}
    for stat in ("min", "median"):
        sums = {side: sum(r[f"{side}_{stat}_ms"] for r in rows) for side in SIDES}
        for side in SIDES:
            out[f"{side}_{stat}_sum_ms"] = sums[side]
        out[f"{stat}_sum_change"] = sums["change"] / sums["parent"] - 1.0
    out["same_values"] = all(r["same_value"] for r in rows)
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/verify_ab.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in args)
    rows = pair_times(parent, change)
    for row in rows:
        print(json.dumps(row))
    print(json.dumps(totals(rows)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
